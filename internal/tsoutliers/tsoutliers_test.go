package tsoutliers

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func at(i int) time.Time {
	return time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
}

// feed pushes a series and returns all alarms raised.
func feed(d *Detector, values []float64) []Alarm {
	var out []Alarm
	for i, v := range values {
		out = append(out, d.Observe(at(i), v)...)
	}
	return out
}

func constSeries(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func noisy(n int, level, amp float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = level + (rng.Float64()-0.5)*amp
	}
	return s
}

func TestQuietSeriesNoAlarms(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	alarms := feed(d, noisy(200, 10, 2, 1))
	if len(alarms) != 0 {
		t.Fatalf("quiet series raised %d alarms: %+v", len(alarms), alarms[0])
	}
}

func TestWarmupSuppressesAlarms(t *testing.T) {
	d := New(Options{Warmup: 8, MinSpread: 0.1})
	// Even wild values during warmup raise nothing.
	for i := 0; i < 7; i++ {
		if got := d.Observe(at(i), float64(i*1000)); len(got) != 0 {
			t.Fatalf("alarm during warmup at %d", i)
		}
	}
}

func TestSpikeRaisesOutlier(t *testing.T) {
	d := New(Options{MinSpread: 0.5, K: 4})
	series := noisy(50, 10, 2, 2)
	series = append(series, 100) // single spike
	alarms := feed(d, series)
	if len(alarms) != 1 || alarms[0].Kind != Outlier {
		t.Fatalf("alarms = %+v, want one outlier", alarms)
	}
	if alarms[0].Value != 100 {
		t.Fatalf("alarm value = %v", alarms[0].Value)
	}
}

func TestSingleSpikeDoesNotShiftLevel(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := append(noisy(50, 10, 2, 3), 100)
	series = append(series, noisy(50, 10, 2, 4)...)
	feed(d, series)
	if len(d.Shifts()) != 0 {
		t.Fatalf("isolated spike confirmed a shift: %+v", d.Shifts())
	}
	if math.Abs(d.Level()-10) > 2 {
		t.Fatalf("level drifted to %v", d.Level())
	}
}

func TestSustainedShiftConfirmedAndAdapts(t *testing.T) {
	d := New(Options{MinSpread: 0.5, MinRun: 4})
	series := noisy(60, 10, 2, 5)
	series = append(series, noisy(100, 60, 2, 6)...) // level shift to 60
	alarms := feed(d, series)

	shifts := d.Shifts()
	if len(shifts) != 1 {
		t.Fatalf("shifts = %d, want 1 (%+v)", len(shifts), shifts)
	}
	if math.Abs(shifts[0].To-60) > 3 || math.Abs(shifts[0].From-10) > 2 {
		t.Fatalf("shift = %+v", shifts[0])
	}
	// Alarms stop after adaptation: outliers only around the transition.
	var shiftAlarms, outliers int
	for _, a := range alarms {
		switch a.Kind {
		case Shift:
			shiftAlarms++
		case Outlier:
			outliers++
		}
	}
	if shiftAlarms != 1 {
		t.Fatalf("shift alarms = %d", shiftAlarms)
	}
	if outliers > 8 {
		t.Fatalf("detector kept alarming after adaptation: %d outliers", outliers)
	}
	if math.Abs(d.Level()-60) > 3 {
		t.Fatalf("level = %v, want ~60", d.Level())
	}
}

func TestDownwardShiftDetected(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := append(noisy(60, 60, 2, 7), noisy(60, 10, 2, 8)...)
	feed(d, series)
	if len(d.Shifts()) != 1 || math.Abs(d.Shifts()[0].To-10) > 3 {
		t.Fatalf("downward shift missed: %+v", d.Shifts())
	}
}

func TestShiftUpThenDownTwoShifts(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := noisy(60, 10, 2, 9)
	series = append(series, noisy(120, 60, 2, 10)...)
	series = append(series, noisy(120, 10, 2, 11)...)
	feed(d, series)
	if len(d.Shifts()) != 2 {
		t.Fatalf("shifts = %d, want 2: %+v", len(d.Shifts()), d.Shifts())
	}
}

func TestAdjustedSeriesRemovesShift(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := append(noisy(60, 10, 2, 12), noisy(100, 60, 2, 13)...)
	feed(d, series)
	// After the shift to ~60, the adjusted value of 60 should map back
	// near the original base level ~10.
	adj := d.Adjusted(60)
	if math.Abs(adj-10) > 4 {
		t.Fatalf("Adjusted(60) = %v, want ~10", adj)
	}
}

func TestMixedSignRunDoesNotShift(t *testing.T) {
	d := New(Options{MinSpread: 0.5, MinRun: 4})
	series := noisy(60, 50, 2, 14)
	// Alternating extreme outliers: +/-, never 4 in a row on one side.
	series = append(series, 200, -100, 200, -100, 200, -100, 200, -100)
	feed(d, series)
	if len(d.Shifts()) != 0 {
		t.Fatalf("alternating outliers confirmed shift: %+v", d.Shifts())
	}
}

func TestAlarmCount(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := append(noisy(60, 10, 2, 15), noisy(30, 60, 2, 16)...)
	feed(d, series)
	all := d.AlarmCount(0)
	if all != d.AlarmCount(Outlier)+d.AlarmCount(Shift) {
		t.Fatal("alarm counts inconsistent")
	}
	if d.AlarmCount(Shift) != 1 {
		t.Fatalf("shift count = %d", d.AlarmCount(Shift))
	}
}

func TestObservationsCounted(t *testing.T) {
	d := New(Options{})
	feed(d, constSeries(25, 1))
	if d.Observations() != 25 {
		t.Fatalf("Observations = %d", d.Observations())
	}
}

func TestMinSpreadFloorsConstantSeries(t *testing.T) {
	// A perfectly constant series has MAD 0; MinSpread must keep tiny
	// jitter from alarming.
	d := New(Options{MinSpread: 1.0})
	series := constSeries(50, 5)
	series = append(series, 5.5, 5.4, 5.6) // tiny wiggle
	if alarms := feed(d, series); len(alarms) != 0 {
		t.Fatalf("tiny wiggle alarmed: %+v", alarms)
	}
	// But a jump beyond K*MinSpread still alarms.
	if alarms := d.Observe(at(999), 50); len(alarms) == 0 {
		t.Fatal("real jump missed")
	}
}

func TestKindString(t *testing.T) {
	if Outlier.String() != "outlier" || Shift.String() != "level-shift" || AlarmKind(9).String() != "unknown" {
		t.Fatal("kind strings wrong")
	}
}

func TestMedianHelpers(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median(nil)")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if mad(nil, 0) != 0 {
		t.Fatal("mad(nil)")
	}
	got := mad([]float64{1, 1, 1}, 1)
	if got != 0 {
		t.Fatalf("mad of constant = %v", got)
	}
}

func TestTemporaryChangeClassification(t *testing.T) {
	d := New(Options{MinSpread: 0.5, MinRun: 4})
	// Baseline 10, shift to 60 for a bounded episode, back to 10: the
	// second shift is classified as a temporary change.
	series := noisy(60, 10, 2, 41)
	series = append(series, noisy(120, 60, 2, 42)...)
	series = append(series, noisy(60, 10, 2, 43)...)
	feed(d, series)
	if len(d.Shifts()) != 2 {
		t.Fatalf("shifts = %d, want 2", len(d.Shifts()))
	}
	if d.TempChanges() != 1 {
		t.Fatalf("temp changes = %d, want 1", d.TempChanges())
	}
	if d.AlarmCount(TempChange) != 1 {
		t.Fatalf("TC alarms = %d", d.AlarmCount(TempChange))
	}
}

func TestPermanentShiftNotTemporary(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	series := append(noisy(60, 10, 2, 44), noisy(120, 60, 2, 45)...)
	feed(d, series)
	if d.TempChanges() != 0 {
		t.Fatalf("permanent shift classified temporary: %d", d.TempChanges())
	}
}

func TestShiftToNewLevelNotTemporary(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	// Up to 60, then on to 120: two shifts but no reversion.
	series := noisy(60, 10, 2, 46)
	series = append(series, noisy(60, 60, 2, 47)...)
	series = append(series, noisy(60, 120, 2, 48)...)
	feed(d, series)
	if len(d.Shifts()) != 2 || d.TempChanges() != 0 {
		t.Fatalf("shifts=%d tc=%d", len(d.Shifts()), d.TempChanges())
	}
}

func TestTCWindowExpiry(t *testing.T) {
	d := New(Options{MinSpread: 0.5, TCWindow: 50})
	// The episode lasts 200 samples: longer than the TC window, so the
	// reversion is a plain level shift, not a temporary change.
	series := noisy(60, 10, 2, 49)
	series = append(series, noisy(200, 60, 2, 50)...)
	series = append(series, noisy(60, 10, 2, 51)...)
	feed(d, series)
	if d.TempChanges() != 0 {
		t.Fatalf("expired episode classified temporary")
	}
}

func TestTCDisabled(t *testing.T) {
	d := New(Options{MinSpread: 0.5, TCWindow: -1})
	series := noisy(60, 10, 2, 52)
	series = append(series, noisy(80, 60, 2, 53)...)
	series = append(series, noisy(60, 10, 2, 54)...)
	feed(d, series)
	if d.TempChanges() != 0 {
		t.Fatal("TC detection ran while disabled")
	}
}

func TestTempChangeKindString(t *testing.T) {
	if TempChange.String() != "temporary-change" {
		t.Fatal("kind string")
	}
}

func TestMaxAlarmsRing(t *testing.T) {
	opt := Options{MinSpread: 0.5, MinRun: 1000, MaxAlarms: 8}
	d := New(opt)
	unbounded := New(Options{MinSpread: 0.5, MinRun: 1000})
	// Warm both on a quiet baseline, then raise many isolated outliers
	// (MinRun is unreachable, so every alarm is an Outlier).
	for i := 0; i < 40; i++ {
		d.Observe(at(i), 10)
		unbounded.Observe(at(i), 10)
	}
	for i := 0; i < 25; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1 // alternate sides so no run ever builds
		}
		d.Observe(at(100+i), 10+sign*500)
		unbounded.Observe(at(100+i), 10+sign*500)
	}

	if got := d.Alarms(); len(got) != 8 {
		t.Fatalf("ring holds %d alarms, want 8", len(got))
	}
	// The ring keeps the most recent alarms in chronological order.
	want := unbounded.Alarms()
	tail := want[len(want)-8:]
	for i, a := range d.Alarms() {
		if !a.Time.Equal(tail[i].Time) || a.Value != tail[i].Value {
			t.Fatalf("ring[%d] = %+v, want %+v", i, a, tail[i])
		}
	}
	// Counts stay exact despite eviction.
	if d.AlarmCount(0) != 25 || d.AlarmCount(Outlier) != 25 {
		t.Fatalf("counts = %d/%d, want 25/25", d.AlarmCount(0), d.AlarmCount(Outlier))
	}
	if d.AlarmCount(Shift) != 0 || d.AlarmCount(AlarmKind(9)) != 0 {
		t.Fatal("kind counts wrong")
	}
}

func TestMaxAlarmsUnlimitedByDefault(t *testing.T) {
	d := New(Options{MinSpread: 0.5})
	for i := 0; i < 30; i++ {
		d.Observe(at(i), 10)
	}
	for i := 0; i < 500; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		d.Observe(at(100+i), 10+sign*500)
	}
	if len(d.Alarms()) != 500 || d.AlarmCount(0) != 500 {
		t.Fatalf("unlimited history truncated: %d alarms, count %d", len(d.Alarms()), d.AlarmCount(0))
	}
}

func TestMaxAlarmsRingKindCountsAcrossShifts(t *testing.T) {
	d := New(Options{MinSpread: 0.5, MinRun: 3, MaxAlarms: 4})
	series := noisy(60, 10, 2, 77)
	series = append(series, noisy(60, 80, 2, 78)...) // confirmed shift
	feed(d, series)
	if d.AlarmCount(Shift) != 1 {
		t.Fatalf("shift count = %d, want 1 (exact despite 4-alarm ring)", d.AlarmCount(Shift))
	}
	if got := d.AlarmCount(0); got != d.AlarmCount(Outlier)+d.AlarmCount(Shift)+d.AlarmCount(TempChange) {
		t.Fatalf("total %d != sum of kinds", got)
	}
	if len(d.Alarms()) > 4 {
		t.Fatalf("ring exceeded cap: %d", len(d.Alarms()))
	}
}

// TestObserveSteadyStateAllocFree pins the hot path at the default
// Window of 60: once warm (window populated, alarm ring full, deviation
// slice at its high-water mark), Observe must not allocate — neither on
// inliers nor on outlier alarms.
func TestObserveSteadyStateAllocFree(t *testing.T) {
	t.Run("inliers", func(t *testing.T) {
		d := New(Options{MinSpread: 0.5, MaxAlarms: 64})
		series := noisy(500, 10, 2, 88)
		for i, v := range series {
			d.Observe(at(i), v)
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			d.Observe(at(1000+i), series[i%len(series)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("steady-state inlier Observe: %.2f allocs/op, want 0", allocs)
		}
	})
	t.Run("outlier-alarms", func(t *testing.T) {
		d := New(Options{MinSpread: 0.5, MinRun: 1000, MaxAlarms: 64})
		for i := 0; i < 200; i++ {
			d.Observe(at(i), 10)
		}
		// Fill the alarm ring so record() stops growing the slice.
		for i := 0; i < 128; i++ {
			sign := 1.0
			if i%2 == 1 {
				sign = -1
			}
			d.Observe(at(500+i), 10+sign*500)
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			sign := 1.0
			if i%2 == 1 {
				sign = -1
			}
			d.Observe(at(5000+i), 10+sign*500)
			i++
		})
		if allocs != 0 {
			t.Fatalf("steady-state outlier Observe: %.2f allocs/op, want 0", allocs)
		}
	})
}

// TestObserveReturnBufferReused documents the Observe contract: the
// returned slice is detector-owned and overwritten by the next call.
func TestObserveReturnBufferReused(t *testing.T) {
	d := New(Options{MinSpread: 0.5, MinRun: 1000})
	for i := 0; i < 30; i++ {
		d.Observe(at(i), 10)
	}
	first := d.Observe(at(100), 900)
	if len(first) != 1 || first[0].Value != 900 {
		t.Fatalf("first = %+v", first)
	}
	second := d.Observe(at(101), -900)
	if len(second) != 1 || second[0].Value != -900 {
		t.Fatalf("second = %+v", second)
	}
	// Same backing buffer: the first slice now shows the second alarm.
	if first[0].Value != -900 {
		t.Fatalf("Observe buffer not reused (first[0].Value = %v) — update the contract docs if this is intentional", first[0].Value)
	}
}
