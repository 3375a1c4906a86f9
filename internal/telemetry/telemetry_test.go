package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Inc()
	}
	c.Add(24)
	if got := c.Value(); got != 1024 {
		t.Fatalf("Value = %d, want 1024", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("Value after Reset = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
}

func TestBucketLayoutIsContiguous(t *testing.T) {
	// Every bucket's hi must equal the next bucket's lo, and bucketIndex
	// must invert bucketBounds for both endpoints of each bucket.
	prevHi := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo = %d, want %d (gap/overlap)", i, lo, prevHi)
		}
		if hi <= lo && i < histBuckets-1 {
			t.Fatalf("bucket %d: empty range [%d,%d)", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	// Below 2^histSubBits ns, buckets are unit-width: quantiles are exact.
	for v := 1; v <= 31; v++ {
		h.Observe(time.Duration(v))
	}
	if got := h.Quantile(0.5); got != 16 {
		t.Fatalf("P50 over 1..31ns = %v, want 16ns", got)
	}
	if got := h.Max(); got != 31 {
		t.Fatalf("Max = %v, want 31ns", got)
	}
	if got := h.Count(); got != 31 {
		t.Fatalf("Count = %d, want 31", got)
	}
}

// TestHistogramQuantileAccuracy checks interpolation against a known
// uniform distribution: every microsecond count from 1ms to 100ms once.
// True quantiles are q*100ms; log buckets bound relative error at
// 1/histSubCount plus interpolation slack, so 5% is a safe gate.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	for us := 1000; us <= 100000; us++ {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		relErr := (float64(got) - float64(tc.want)) / float64(tc.want)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("P%.0f = %v, want %v ±5%% (err %.1f%%)", tc.q*100, got, tc.want, relErr*100)
		}
	}
	if got, want := h.Max(), 100*time.Millisecond; got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got < want-want/20 || got > want+want/20 {
		t.Errorf("Mean = %v, want ≈%v", got, want)
	}
}

// TestHistogramQuantileAccuracyLognormal repeats the accuracy gate on a
// skewed distribution (deterministic seed).
func TestHistogramQuantileAccuracyLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	values := make([]float64, 0, 200000)
	for i := 0; i < 200000; i++ {
		// exp(N(ln(5ms), 0.7)) — latencies clustered around 5ms with a tail.
		v := 5e6 * math.Exp(rng.NormFloat64()*0.7)
		values = append(values, v)
		h.Observe(time.Duration(v))
	}
	sort.Float64s(values)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := values[int(q*float64(len(values)))]
		got := float64(h.Quantile(q))
		relErr := (got - want) / want
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.05 {
			t.Errorf("P%.0f = %v, want %v ±5%% (err %.1f%%)", q*100,
				time.Duration(got), time.Duration(want), relErr*100)
		}
	}
}

func TestHistogramEmptyAndExtremes(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty P50 = %v, want 0", got)
	}
	h.Observe(-5 * time.Second) // clamps to 0
	h.Observe(0)
	if got := h.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if got := h.Quantile(1.5); got != 0 {
		t.Fatalf("q>1 = %v, want Max=0", got)
	}
}

// TestConcurrentHammer exercises a shared Counter, Gauge, and Histogram
// from many goroutines; run under -race this is the data-race gate, and
// the final counts must be exact.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 20000
	)
	var (
		c  Counter
		g  Gauge
		h  Histogram
		wg sync.WaitGroup
	)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i*perG+j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("Counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Errorf("Gauge = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("Histogram count = %d, want %d", got, goroutines*perG)
	}
	if got, want := h.Max(), time.Duration(goroutines*perG-1)*time.Microsecond; got != want {
		t.Errorf("Histogram max = %v, want %v", got, want)
	}
}

// TestConcurrentRegistryAccess hammers get-or-create and Snapshot
// concurrently (the -race gate for the registry maps).
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(time.Duration(j))
				r.Gauge("depth").Set(int64(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*2000 {
		t.Fatalf("shared = %d, want %d", got, 8*2000)
	}
}

func TestRegistryGetOrCreateAndReset(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c1.Add(5)
	if c2 := r.Counter("a.b"); c2 != c1 {
		t.Fatal("Counter returned a different pointer for the same name")
	}
	h := r.Histogram("a.lat")
	h.Observe(time.Millisecond)
	r.RegisterFunc("a.fn", func() float64 { return 2.5 })

	snap := r.Snapshot()
	if snap.Counters["a.b"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", snap.Counters["a.b"])
	}
	if snap.Histograms["a.lat"].Count != 1 {
		t.Fatalf("snapshot hist count = %d, want 1", snap.Histograms["a.lat"].Count)
	}
	if snap.Funcs["a.fn"] != 2.5 {
		t.Fatalf("snapshot func = %g, want 2.5", snap.Funcs["a.fn"])
	}

	r.Reset()
	if c1.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset did not zero metrics in place")
	}
	c1.Inc() // cached pointer still live after Reset
	if r.Snapshot().Counters["a.b"] != 1 {
		t.Fatal("cached pointer detached from registry after Reset")
	}
}

func TestSpanRecordsIntoHistogram(t *testing.T) {
	r := NewRegistry()
	sp := r.Histogram("stage.x").Start()
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < 2*time.Millisecond {
		t.Fatalf("span measured %v, want >= 2ms", d)
	}
	st := r.Histogram("stage.x").Stats()
	if st.Count != 1 || st.MaxMs < 2 {
		t.Fatalf("histogram stats = %+v, want count 1 and max >= 2ms", st)
	}
	var zero Span
	if zero.End() != 0 {
		t.Fatal("zero Span End should be a no-op")
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	GetCounter("test.default_helper").Add(3)
	GetGauge("test.default_gauge").Set(9)
	GetHistogram("test.default_hist").Observe(time.Millisecond)
	snap := Snap()
	if snap.Counters["test.default_helper"] != 3 {
		t.Fatalf("default counter = %d, want 3", snap.Counters["test.default_helper"])
	}
	if snap.Gauges["test.default_gauge"] != 9 {
		t.Fatalf("default gauge = %d, want 9", snap.Gauges["test.default_gauge"])
	}
	if Default() != std {
		t.Fatal("Default() is not the package registry")
	}
}

func TestLogFirst(t *testing.T) {
	if !LogFirst("test.logfirst", "hello %d", 1) {
		t.Fatal("first LogFirst should log")
	}
	if LogFirst("test.logfirst", "hello %d", 2) {
		t.Fatal("second LogFirst should not log")
	}
}

func TestSnapshotCarriesProvenance(t *testing.T) {
	p := Prov()
	if p.GoVersion == "" {
		t.Error("provenance go_version empty")
	}
	if p.GOMAXPROCS < 1 {
		t.Errorf("provenance gomaxprocs = %d", p.GOMAXPROCS)
	}
	// Test binaries carry no VCS stamp; the field must still be filled.
	if p.GitRev == "" {
		t.Error("provenance git_rev empty (want a revision or \"unknown\")")
	}
	snap := NewRegistry().Snapshot()
	if snap.Provenance != p {
		t.Errorf("snapshot provenance %+v != Prov() %+v", snap.Provenance, p)
	}
}

// TestQuantileTopBucketInterpolation is the regression test for the
// top-log-bucket fix: inside the bucket holding the maximum, quantiles
// interpolate toward the recorded max, not the bucket's upper edge —
// so a single-sample histogram answers every quantile with the one
// value it saw (not the bucket boundary, and not 0 for a 0ns sample).
func TestQuantileTopBucketInterpolation(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 5 * time.Millisecond, 987654321, 1<<40 + 12345} {
		h := &Histogram{}
		h.Observe(d)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if got := h.Quantile(q); got != d {
				t.Errorf("single sample %v: Quantile(%v) = %v, want the sample", d, q, got)
			}
		}
		if got := h.Stats(); got.MaxMs != float64(d)/1e6 {
			t.Errorf("single sample %v: MaxMs = %v", d, got.MaxMs)
		}
	}

	// Many samples in the max's bucket: the quantile must never exceed
	// the max, and the top quantile must land on it.
	h := &Histogram{}
	base := time.Duration(1 << 30)
	for i := 0; i < 100; i++ {
		h.Observe(base + time.Duration(i)) // all land in one log bucket
	}
	maxv := base + 99
	if got := h.Quantile(0.999); got > maxv {
		t.Errorf("P99.9 = %v beyond max %v", got, maxv)
	}
	if got := h.Quantile(1); got != maxv {
		t.Errorf("Quantile(1) = %v, want max %v", got, maxv)
	}
}

// TestHistSnapDeltaQuantiles exercises the capture-and-subtract path
// the export Sampler uses: quantiles over an interval's bucket deltas, with
// reset detection, and the single-sample-interval exactness regression.
func TestHistSnapDeltaQuantiles(t *testing.T) {
	h := &Histogram{}
	var prev, cur HistSnap
	h.Observe(2 * time.Millisecond)
	h.Snap(&prev)

	// One new sample this interval; it is also the cumulative max.
	h.Observe(8 * time.Millisecond)
	h.Snap(&cur)
	if !cur.Sub(&prev) {
		t.Fatal("Sub reported a reset on a monotonic histogram")
	}
	if cur.Count != 1 {
		t.Fatalf("interval count = %d, want 1", cur.Count)
	}
	want := 8 * time.Millisecond
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := cur.Quantile(q); got != want {
			t.Errorf("interval Quantile(%v) = %v, want %v (single-sample interval)", q, got, want)
		}
	}
	if got := time.Duration(cur.MaxNS()); got != want {
		t.Errorf("interval MaxNS = %v, want %v", got, want)
	}
	if got := time.Duration(cur.Sum); got != 8*time.Millisecond {
		t.Errorf("interval Sum = %v", got)
	}

	// An interval whose samples are all below the cumulative max: the
	// max estimate must come from the interval's own top bucket, within
	// one bucket width — not 0, not the stale cumulative max.
	h.Snap(&prev)
	h.Observe(1 * time.Millisecond)
	h.Snap(&cur)
	if !cur.Sub(&prev) {
		t.Fatal("Sub reported a reset")
	}
	got := time.Duration(cur.MaxNS())
	if got < 1*time.Millisecond || got > 1*time.Millisecond+time.Millisecond/16 {
		t.Errorf("interval MaxNS = %v, want ~1ms (one bucket width)", got)
	}
	if p := cur.Quantile(0.99); p < 1*time.Millisecond-time.Millisecond/16 || p > got {
		t.Errorf("interval P99 = %v, want ~1ms", p)
	}

	// Reset detection: a zeroed histogram is not a superset of prev.
	h.Reset()
	h.Observe(3 * time.Millisecond)
	h.Snap(&cur)
	if cur.Sub(&prev) {
		t.Fatal("Sub accepted a reset histogram as monotonic")
	}
	if cur.Count != 1 {
		t.Fatalf("failed Sub must leave the capture untouched; count = %d", cur.Count)
	}
}

// TestSnapshotIntoReusesBuffers pins the Sampler's scrape cost: once
// the metric set is stable, SnapshotInto into a reused Snapshot must
// not allocate.
func TestSnapshotIntoReusesBuffers(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("c.%d", i)).Add(uint64(i))
		r.Gauge(fmt.Sprintf("g.%d", i)).Set(int64(i))
		r.Histogram(fmt.Sprintf("h.%d", i)).Observe(time.Duration(i+1) * time.Millisecond)
	}
	r.RegisterFunc("f.0", func() float64 { return 1.5 })

	var snap Snapshot
	r.SnapshotInto(&snap) // warm the maps
	allocs := testing.AllocsPerRun(100, func() {
		r.SnapshotInto(&snap)
	})
	if allocs > 0 {
		t.Errorf("SnapshotInto steady-state allocs = %v, want 0", allocs)
	}
	if snap.Counters["c.3"] != 3 || snap.Gauges["g.5"] != 5 || snap.Funcs["f.0"] != 1.5 {
		t.Errorf("reused snapshot dropped values: %+v", snap)
	}
	if len(snap.Histograms) != 8 || snap.Histograms["h.2"].Count != 1 {
		t.Errorf("reused snapshot histograms wrong: %d entries", len(snap.Histograms))
	}

	// New metrics after the warm-up must still appear.
	r.Counter("c.new").Inc()
	r.SnapshotInto(&snap)
	if snap.Counters["c.new"] != 1 {
		t.Error("SnapshotInto missed a metric registered after warm-up")
	}
}
