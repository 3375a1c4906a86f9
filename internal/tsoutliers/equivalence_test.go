package tsoutliers

// Old-vs-new detector equivalence: referenceDetector is a verbatim copy
// of the pre-incremental implementation (per-Observe deviation slice +
// full re-sort, the naive median/mad oracles). Every test here feeds
// the same stream to both and requires bit-identical behavior — same
// alarms (kind, time, value, level, threshold), same shifts, same
// level — because the analyzer's replay byte-identity (live vs WAL,
// inline vs pooled detection) rests on the detector being deterministic
// down to the float.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"
)

// referenceDetector is the old O(W log W)-per-event implementation.
type referenceDetector struct {
	opt Options

	seeded  bool
	seedBuf []float64
	level   float64
	base    float64

	inliers []float64

	run     []float64
	runSign int

	alarms     []Alarm
	shifts     []ShiftRecord
	lastShiftN int
	tempCount  int
	n          int
}

func newReference(opt Options) *referenceDetector {
	opt.defaults()
	return &referenceDetector{opt: opt}
}

func (d *referenceDetector) Observe(t time.Time, v float64) []Alarm {
	d.n++
	if !d.seeded {
		d.seedBuf = append(d.seedBuf, v)
		if len(d.seedBuf) >= d.opt.Warmup {
			d.level = median(d.seedBuf)
			d.base = d.level
			d.inliers = append(d.inliers, d.seedBuf...)
			d.seedBuf = nil
			d.seeded = true
		}
		return nil
	}

	spread := mad(d.inliers, d.level)
	if spread < d.opt.MinSpread {
		spread = d.opt.MinSpread
	}
	threshold := d.opt.K * spread
	resid := v - d.level

	if math.Abs(resid) <= threshold {
		d.pushInlier(v)
		d.run = d.run[:0]
		d.runSign = 0
		return nil
	}

	sign := 1
	if resid < 0 {
		sign = -1
	}
	if sign != d.runSign {
		d.run = d.run[:0]
		d.runSign = sign
	}
	d.run = append(d.run, v)

	out := []Alarm{{Time: t, Kind: Outlier, Value: v, Level: d.level, Threshold: threshold}}

	if len(d.run) >= d.opt.MinRun {
		from := d.level
		d.level = median(d.run)
		d.shifts = append(d.shifts, ShiftRecord{Time: t, From: from, To: d.level})
		out = append(out, Alarm{Time: t, Kind: Shift, Value: v, Level: d.level, Threshold: threshold})
		if d.opt.TCWindow > 0 && len(d.shifts) >= 2 {
			prev := d.shifts[len(d.shifts)-2]
			reverted := math.Abs(d.level-prev.From) <= d.opt.TCTolerance*math.Max(math.Abs(prev.From), d.opt.MinSpread)
			if reverted && d.n-d.lastShiftN <= d.opt.TCWindow {
				d.tempCount++
				out = append(out, Alarm{Time: t, Kind: TempChange, Value: v, Level: d.level, Threshold: threshold})
			}
		}
		d.lastShiftN = d.n
		d.inliers = append(d.inliers[:0], d.run...)
		d.run = d.run[:0]
		d.runSign = 0
	}

	d.alarms = append(d.alarms, out...)
	return out
}

func (d *referenceDetector) pushInlier(v float64) {
	d.inliers = append(d.inliers, v)
	if len(d.inliers) > d.opt.Window {
		d.inliers = d.inliers[len(d.inliers)-d.opt.Window:]
	}
}

// alarmsBitEqual compares two alarm slices field-by-field, with floats
// by bit pattern (NaN payloads collapse: any NaN equals any NaN).
func alarmsBitEqual(a, b []Alarm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].Kind != b[i].Kind ||
			!bitsEqual(a[i].Value, b[i].Value) ||
			!bitsEqual(a[i].Level, b[i].Level) ||
			!bitsEqual(a[i].Threshold, b[i].Threshold) {
			return false
		}
	}
	return true
}

// driveBoth checks a fresh detector against the reference, then one that
// has already judged the series and was Reset: reuse must be
// indistinguishable from construction.
func driveBoth(t *testing.T, opt Options, series []float64) {
	t.Helper()
	d := New(opt)
	drive(t, d, opt, series)
	d.Reset()
	drive(t, d, opt, series)
}

// drive feeds series to d and a fresh reference and fails on the first
// divergence: per-Observe alarms, then final level/shifts/TC.
func drive(t *testing.T, d *Detector, opt Options, series []float64) {
	t.Helper()
	ref := newReference(opt)
	for i, v := range series {
		got := d.Observe(at(i), v)
		want := ref.Observe(at(i), v)
		if !alarmsBitEqual(got, want) {
			t.Fatalf("sample %d (v=%v): alarms diverged\n new: %+v\n old: %+v", i, v, got, want)
		}
	}
	if !bitsEqual(d.Level(), ref.level) {
		t.Fatalf("final level: new %v, old %v", d.Level(), ref.level)
	}
	if d.TempChanges() != ref.tempCount {
		t.Fatalf("temp changes: new %d, old %d", d.TempChanges(), ref.tempCount)
	}
	gs, ws := d.Shifts(), ref.shifts
	if len(gs) != len(ws) {
		t.Fatalf("shifts: new %d, old %d", len(gs), len(ws))
	}
	for i := range gs {
		if !gs[i].Time.Equal(ws[i].Time) || !bitsEqual(gs[i].From, ws[i].From) || !bitsEqual(gs[i].To, ws[i].To) {
			t.Fatalf("shift %d: new %+v, old %+v", i, gs[i], ws[i])
		}
	}
	if d.AlarmCount(0) != len(ref.alarms) {
		t.Fatalf("alarm total: new %d, old %d", d.AlarmCount(0), len(ref.alarms))
	}
}

// tieHeavy yields values from a tiny quantized domain so the deviation
// multiset is dominated by duplicate keys — the case where value-based
// selection over merged nodes must still match sorted-slice ranks.
func tieHeavy(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = 10 + float64(rng.Intn(5))*0.25
	}
	return s
}

func TestDetectorEquivalenceTable(t *testing.T) {
	dflt := Options{MinSpread: 0.5}
	cases := []struct {
		name   string
		opt    Options
		series []float64
	}{
		{"warmup-only", dflt, noisy(6, 10, 2, 101)},
		{"quiet", dflt, noisy(300, 10, 2, 102)},
		{"single-spike", dflt, append(noisy(50, 10, 2, 103), append([]float64{150}, noisy(50, 10, 2, 104)...)...)},
		{"sustained-shift", dflt, append(noisy(60, 10, 2, 105), noisy(120, 60, 2, 106)...)},
		{"tc-revert", Options{MinSpread: 0.5, MinRun: 4},
			append(append(noisy(60, 10, 2, 107), noisy(100, 60, 2, 108)...), noisy(60, 10, 2, 109)...)},
		{"tie-heavy", Options{MinSpread: 0.1}, tieHeavy(500, 110)},
		{"near-constant-minspread", Options{MinSpread: 1.0},
			append(constSeries(80, 5), 5.5, 5.4, 5.6, 50, 5.1, 5.2)},
		{"mixed-sign-runs", Options{MinSpread: 0.5, MinRun: 4},
			append(noisy(60, 50, 2, 111), 200, -100, 200, -100, 200, -100, 200, -100)},
		{"window-eviction", Options{MinSpread: 0.3, Window: 16}, noisy(400, 20, 3, 112)},
		{"warmup-larger-than-window", Options{MinSpread: 0.3, Warmup: 32, Window: 8}, noisy(200, 20, 3, 113)},
		{"shift-run-larger-than-window", Options{MinSpread: 0.3, MinRun: 12, Window: 6},
			append(noisy(60, 10, 1, 114), noisy(80, 90, 1, 115)...)},
		{"downward-shift", dflt, append(noisy(60, 60, 2, 116), noisy(80, 10, 2, 117)...)},
		{"staircase", Options{MinSpread: 0.4, MinRun: 3},
			append(append(noisy(50, 10, 1, 118), noisy(50, 40, 1, 119)...), noisy(50, 90, 1, 120)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { driveBoth(t, tc.opt, tc.series) })
	}
}

// TestDetectorEquivalenceRandomized sweeps option sets against random
// walks with injected level episodes.
func TestDetectorEquivalenceRandomized(t *testing.T) {
	opts := []Options{
		{},
		{MinSpread: 0.5},
		{MinSpread: 0.01, K: 3, MinRun: 3, Window: 20},
		{MinSpread: 0.2, Window: 7, Warmup: 3, MinRun: 2, TCWindow: 40},
		{MinSpread: 1, K: 6, Window: 128, Warmup: 24},
		{MinSpread: 0.1, TCWindow: -1},
	}
	for oi, opt := range opts {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(oi)))
			series := make([]float64, 800)
			level := 20.0
			for i := range series {
				switch {
				case rng.Intn(150) == 0: // episode: move the level
					level = 10 + rng.Float64()*100
				case rng.Intn(90) == 0: // isolated spike
					series[i] = level + 300
					continue
				}
				series[i] = level + rng.NormFloat64()*2
			}
			driveBoth(t, opt, series)
		}
	}
}

// fuzzSeries decodes the fuzzer's bytes into detector options plus a
// float64 series (any bit pattern: ±Inf and NaNs included).
func fuzzSeries(data []byte) (Options, []float64) {
	if len(data) < 4 {
		return Options{}, nil
	}
	opt := Options{
		Window:    1 + int(data[0]%64),
		Warmup:    1 + int(data[1]%16),
		MinRun:    1 + int(data[2]%8),
		K:         1 + float64(data[3]%8)/2,
		MinSpread: 1e-3,
		TCWindow:  64,
	}
	data = data[4:]
	n := len(data) / 8
	if n > 2048 {
		n = 2048
	}
	series := make([]float64, n)
	for i := 0; i < n; i++ {
		series[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return opt, series
}

// FuzzDetectorEquivalence drives arbitrary byte-derived series through
// both implementations. Any divergence — alarms, level, shifts — is a
// crash, including on ±Inf and NaN inputs.
func FuzzDetectorEquivalence(f *testing.F) {
	seed1 := make([]byte, 4, 4+40*8)
	seed1[0], seed1[1], seed1[2], seed1[3] = 16, 4, 3, 4
	for i := 0; i < 40; i++ {
		v := 10.0
		if i >= 20 {
			v = 80
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		seed1 = append(seed1, b[:]...)
	}
	f.Add(seed1)
	f.Add([]byte{8, 8, 4, 6, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		opt, series := fuzzSeries(data)
		if len(series) == 0 {
			return
		}
		d := New(opt)
		ref := newReference(opt)
		for i, v := range series {
			got := d.Observe(at(i), v)
			want := ref.Observe(at(i), v)
			if !alarmsBitEqual(got, want) {
				t.Fatalf("sample %d (bits %#x): alarms diverged\n new: %+v\n old: %+v",
					i, math.Float64bits(v), got, want)
			}
		}
		if !bitsEqual(d.Level(), ref.level) {
			t.Fatalf("final level: new %v (%#x), old %v (%#x)",
				d.Level(), math.Float64bits(d.Level()), ref.level, math.Float64bits(ref.level))
		}
		if len(d.Shifts()) != len(ref.shifts) || d.TempChanges() != ref.tempCount {
			t.Fatalf("shifts/tc: new %d/%d, old %d/%d",
				len(d.Shifts()), d.TempChanges(), len(ref.shifts), ref.tempCount)
		}
	})
}
