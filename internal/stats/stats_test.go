package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptySummary(t *testing.T) {
	s := NewSummary()
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty summary not zeroed: %s", s)
	}
}

// TestEmptySummaryNoPoisonValues is the regression test for the ±Inf
// sentinels NewSummary used to seed min/max with: nothing an empty
// summary exposes — accessors, String, or JSON — may carry an Inf, and
// the struct itself must not hold one (a marshal of raw state would
// fail on it).
func TestEmptySummaryNoPoisonValues(t *testing.T) {
	s := NewSummary()
	if math.IsInf(s.min, 0) || math.IsInf(s.max, 0) {
		t.Fatalf("empty summary holds Inf sentinels: min=%v max=%v", s.min, s.max)
	}
	if out := s.String(); strings.Contains(out, "Inf") {
		t.Fatalf("String leaks Inf: %q", out)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("empty summary does not marshal: %v", err)
	}
	if strings.Contains(string(buf), "Inf") || strings.Contains(string(buf), "null") {
		t.Fatalf("marshal leaks poison values: %s", buf)
	}
}

// TestSummaryMarshalJSON checks the digest a populated summary emits.
func TestSummaryMarshalJSON(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{-2, 4, 6} {
		s.Observe(v)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Count          uint64
		Mean, Min, Max float64
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("digest does not round-trip: %v (%s)", err, buf)
	}
	if got.Count != 3 || got.Min != -2 || got.Max != 6 || math.Abs(got.Mean-8.0/3) > 1e-12 {
		t.Fatalf("digest wrong: %+v from %s", got, buf)
	}
}

// TestAllNegativeObservations pins min/max seeding from the first
// value: without Inf sentinels, a series that never crosses zero must
// still report its true extrema.
func TestAllNegativeObservations(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{-5, -1, -9} {
		s.Observe(v)
	}
	if s.Min() != -9 || s.Max() != -1 {
		t.Fatalf("extrema wrong: min=%v max=%v", s.Min(), s.Max())
	}
}

func TestBasicMoments(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Observe(v)
	}
	if s.Count() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("moments wrong: %s", s)
	}
}

func TestExactQuantilesSmallN(t *testing.T) {
	s := NewSummary()
	for i := 100; i >= 1; i-- { // reversed insertion order
		s.Observe(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1 {
		t.Fatalf("median = %v, want ~50.5", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-95) > 2 {
		t.Fatalf("p95 = %v", got)
	}
}

func TestReservoirQuantilesLargeN(t *testing.T) {
	s := NewSummary()
	rng := rand.New(rand.NewSource(1))
	// 100k uniform [0, 1000): quantiles should land near q*1000.
	for i := 0; i < 100000; i++ {
		s.Observe(rng.Float64() * 1000)
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		want := q * 1000
		if math.Abs(got-want) > 60 { // reservoir of 1024: a few % error
			t.Fatalf("q%.2f = %.1f, want ~%.1f", q, got, want)
		}
	}
	if s.Count() != 100000 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() float64 {
		s := NewSummary()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50000; i++ {
			s.Observe(rng.NormFloat64())
		}
		return s.Quantile(0.9)
	}
	if mk() != mk() {
		t.Fatal("summaries are not deterministic")
	}
}

func TestInterleavedObserveAndQuantile(t *testing.T) {
	// Quantile sorts the reservoir; later Observes must still work.
	s := NewSummary()
	for i := 0; i < 10; i++ {
		s.Observe(float64(i))
	}
	_ = s.Quantile(0.5)
	s.Observe(100)
	if s.Max() != 100 || s.Quantile(1) != 100 {
		t.Fatalf("post-quantile observe lost: %s", s)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(values []float64) bool {
		if len(values) == 0 {
			return true
		}
		s := NewSummary()
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Observe(v)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			cur := s.Quantile(q)
			if cur < prev {
				return false
			}
			if cur < s.Min() || cur > s.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
