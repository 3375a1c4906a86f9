// Package tsoutliers implements online level-shift (LS) outlier detection
// over continuous value streams, the analogue of the R tsoutliers
// package's LS mode the paper used (§6 "Anomaly detection").
//
// The LS semantics the paper relies on: flag sudden, sustained shifts in a
// series (API latency, CPU utilization); adapt the baseline once the shift
// is confirmed so the detector "does not report many false alarms" and
// "does not raise alerts even if latency variations are smaller than the
// initial observed spike" (§7.3).
//
// The detector keeps a robust baseline (median level, MAD spread) over the
// recent inlier history. Each observation yields a residual against the
// level; residuals beyond K spreads raise outlier alarms, and a run of
// MinRun same-signed outliers confirms a level shift, moving the level to
// the run's median. The adjusted series is the observation minus the
// accumulated shifts — the blue line in the paper's Figs 6 and 8b, with
// shifts the red line.
package tsoutliers

import (
	"math"
	"sort"
	"time"
)

// AlarmKind classifies a raised alarm.
type AlarmKind uint8

const (
	// Outlier flags a single observation beyond the threshold (the R
	// package's AO — additive outlier — when isolated).
	Outlier AlarmKind = iota + 1
	// Shift flags a confirmed level shift (LS), raised once per shift.
	Shift
	// TempChange flags a temporary change (TC): a confirmed shift that
	// reverts to the prior level within the TC window — the R package's
	// third outlier class, and exactly the shape of a bounded fault
	// injection like Fig 8b's 10-minute latency window.
	TempChange
)

// String implements fmt.Stringer.
func (k AlarmKind) String() string {
	switch k {
	case Outlier:
		return "outlier"
	case Shift:
		return "level-shift"
	case TempChange:
		return "temporary-change"
	default:
		return "unknown"
	}
}

// Alarm is one raised anomaly.
type Alarm struct {
	Time      time.Time
	Kind      AlarmKind
	Value     float64
	Level     float64 // baseline level at alarm time
	Threshold float64 // residual threshold in effect
}

// ShiftRecord documents one confirmed level shift.
type ShiftRecord struct {
	Time     time.Time
	From, To float64
}

// Options configures a detector. Zero values select defaults.
type Options struct {
	// K is the residual threshold in robust spreads (default 4).
	K float64
	// MinRun is the count of consecutive same-signed outliers that
	// confirms a level shift (default 4).
	MinRun int
	// Window bounds the inlier residual history used for the spread
	// estimate (default 60 samples). An inlier costs one binary search
	// and one memmove of at most Window floats per insert and per evict
	// (orderstat.go): linear in Window with a tiny constant, sized for
	// windows of tens to a few hundred samples. No product caller sets
	// it; the gated detector scenario measures 60, 240 and 960.
	Window int
	// Warmup is the number of initial samples used to seed the level
	// before any alarms are raised (default 8).
	Warmup int
	// MinSpread floors the spread estimate so near-constant series do
	// not alarm on numeric noise (default 1e-9: effectively off; callers
	// set it to the measurement granularity).
	MinSpread float64
	// TCWindow is the sample horizon within which a shift that reverts
	// to the prior level is classified as a temporary change (default
	// 2000 samples; 0 keeps the default, negative disables TC).
	TCWindow int
	// TCTolerance is the relative tolerance for "reverted to the prior
	// level" (default 0.25: within 25% of the pre-shift level).
	TCTolerance float64
	// MaxAlarms bounds the retained alarm history to a ring of the most
	// recent alarms, so hours-long soaks cannot grow detector memory
	// without limit. 0 keeps the full history (unbounded — the
	// back-compatible test default); the analyzer config applies a
	// generous bound. AlarmCount stays exact regardless: per-kind totals
	// are counted separately from the ring.
	MaxAlarms int
}

func (o *Options) defaults() {
	if o.K == 0 {
		o.K = 4
	}
	if o.MinRun == 0 {
		o.MinRun = 4
	}
	if o.Window == 0 {
		o.Window = 60
	}
	if o.Warmup == 0 {
		o.Warmup = 8
	}
	if o.MinSpread == 0 {
		o.MinSpread = 1e-9
	}
	if o.TCWindow == 0 {
		o.TCWindow = 2000
	}
	if o.TCTolerance == 0 {
		o.TCTolerance = 0.25
	}
}

// Detector is an online level-shift detector for one series. Not safe for
// concurrent use; callers shard one detector per series.
//
// Per-observation work is a binary search plus a short memmove over the
// window (see Options.Window) and allocation-free in steady state: the
// inlier window's absolute deviations around the current level are kept
// sorted (orderstat.go), so the rolling MAD is two indexed reads instead
// of a re-sort. The level only moves on seed and confirmed shifts —
// rare — and those are the only points that rebuild the deviations.
type Detector struct {
	opt Options

	seeded  bool
	seedBuf []float64
	level   float64
	base    float64 // initial level, anchor of the adjusted series

	// Inlier window: win is a ring of the recent inlier values in
	// arrival order (the eviction order), dev the sorted multiset of
	// their deviations |x - level|. All deviations in dev
	// were computed against the current level: every level move
	// rebuilds the window, so the two never drift.
	win     []float64
	winHead int
	winLen  int
	dev     orderStat

	run     []float64 // current consecutive-outlier run values
	runSign int

	// alarms is the retained history: a plain append log when
	// Options.MaxAlarms <= 0, otherwise a ring of the most recent
	// MaxAlarms alarms starting at alarmHead. kindCounts keeps exact
	// totals (index 0 = all kinds) even after ring eviction.
	alarms     []Alarm
	alarmHead  int
	kindCounts [4]uint64

	out     []Alarm   // Observe's reusable return buffer
	scratch []float64 // seed/shift median scratch

	shifts []ShiftRecord
	// lastShiftN records the sample index of the most recent shift, for
	// temporary-change classification.
	lastShiftN int
	tempCount  int
	n          int
}

// New returns a detector with the given options.
func New(opt Options) *Detector {
	opt.defaults()
	return &Detector{opt: opt}
}

// Reset returns the detector to its just-constructed state, keeping its
// options and buffers: it judges the next series exactly as a fresh
// detector would, without the allocations. Slices earlier calls returned
// (Alarms, Shifts) are overwritten.
func (d *Detector) Reset() {
	d.dev.Reset()
	*d = Detector{opt: d.opt, dev: d.dev, seedBuf: d.seedBuf[:0], win: d.win, run: d.run[:0],
		alarms: d.alarms[:0], out: d.out, scratch: d.scratch, shifts: d.shifts[:0]}
}

// median is the naive sort-and-pick median. It survives as the oracle
// the equivalence tests compare the incremental structure against, and
// still defines the selection semantics: s[m/2] for odd m,
// (s[m/2-1]+s[m/2])/2 for even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mad computes the scaled median absolute deviation around center —
// the naive oracle form (see median).
func mad(xs []float64, center float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - center)
	}
	return 1.4826 * median(dev)
}

// medianOf is the allocation-free naive median used where the window
// is rebuilt anyway (seed, confirmed shift): it sorts into a detector-
// owned scratch slice. Selection is identical to median.
func (d *Detector) medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d.scratch = append(d.scratch[:0], xs...)
	sort.Float64s(d.scratch)
	s := d.scratch
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread returns the scaled MAD of the inlier window around the
// current level, from the incremental structure: value-identical to
// mad(inliers, level) because the deviation multiset is the sorted
// slice mad would build.
func (d *Detector) spread() float64 {
	return 1.4826 * d.dev.Median()
}

// rebuildWindow resets the inlier window to xs around the (just moved)
// current level, at seeds and confirmed shifts: Warmup or MinRun
// insertions into an empty multiset.
func (d *Detector) rebuildWindow(xs []float64) {
	d.dev.Reset()
	if cap(d.win) < len(xs) {
		d.win = make([]float64, len(xs))
	}
	d.win = d.win[:cap(d.win)]
	d.winHead, d.winLen = 0, len(xs)
	copy(d.win, xs)
	for _, x := range xs {
		d.dev.Insert(math.Abs(x - d.level))
	}
}

// Observe feeds one sample and returns any alarms it raised. The
// returned slice is a detector-owned buffer reused by the next Observe
// call: read or copy it before observing again, do not retain it.
func (d *Detector) Observe(t time.Time, v float64) []Alarm {
	d.n++
	if !d.seeded {
		d.seedBuf = append(d.seedBuf, v)
		if len(d.seedBuf) >= d.opt.Warmup {
			d.level = d.medianOf(d.seedBuf)
			d.base = d.level
			d.rebuildWindow(d.seedBuf)
			d.seedBuf = d.seedBuf[:0]
			d.seeded = true
		}
		return nil
	}

	spread := d.spread()
	if spread < d.opt.MinSpread {
		spread = d.opt.MinSpread
	}
	threshold := d.opt.K * spread
	resid := v - d.level

	if math.Abs(resid) <= threshold {
		// Inlier: extend baseline, cancel any pending run.
		d.pushInlier(v)
		d.run = d.run[:0]
		d.runSign = 0
		return nil
	}

	// Outlier.
	sign := 1
	if resid < 0 {
		sign = -1
	}
	if sign != d.runSign {
		d.run = d.run[:0]
		d.runSign = sign
	}
	d.run = append(d.run, v)

	out := append(d.out[:0], Alarm{Time: t, Kind: Outlier, Value: v, Level: d.level, Threshold: threshold})

	if len(d.run) >= d.opt.MinRun {
		from := d.level
		d.level = d.medianOf(d.run)
		d.shifts = append(d.shifts, ShiftRecord{Time: t, From: from, To: d.level})
		out = append(out, Alarm{Time: t, Kind: Shift, Value: v, Level: d.level, Threshold: threshold})
		// Temporary change: this shift undoes a recent one, landing back
		// near the level that held before the earlier shift.
		if d.opt.TCWindow > 0 && len(d.shifts) >= 2 {
			prev := d.shifts[len(d.shifts)-2]
			reverted := math.Abs(d.level-prev.From) <= d.opt.TCTolerance*math.Max(math.Abs(prev.From), d.opt.MinSpread)
			if reverted && d.n-d.lastShiftN <= d.opt.TCWindow {
				d.tempCount++
				out = append(out, Alarm{Time: t, Kind: TempChange, Value: v, Level: d.level, Threshold: threshold})
			}
		}
		d.lastShiftN = d.n
		// Re-seed the baseline at the new level so post-shift variation
		// is judged against fresh spread.
		d.rebuildWindow(d.run)
		d.run = d.run[:0]
		d.runSign = 0
	}

	d.out = out
	for i := range out {
		d.record(out[i])
	}
	return out
}

// pushInlier appends v to the inlier window and evicts past the
// Window bound, keeping the deviation multiset in lockstep.
func (d *Detector) pushInlier(v float64) {
	if d.winLen == len(d.win) {
		d.growWin()
	}
	i := d.winHead + d.winLen
	if i >= len(d.win) {
		i -= len(d.win)
	}
	d.win[i] = v
	d.winLen++
	d.dev.Insert(math.Abs(v - d.level))
	for d.winLen > d.opt.Window {
		old := d.win[d.winHead]
		d.winHead++
		if d.winHead == len(d.win) {
			d.winHead = 0
		}
		d.winLen--
		d.dev.Remove(math.Abs(old - d.level))
	}
}

// growWin linearizes the ring into a larger buffer. It settles once
// capacity exceeds the Window bound (and the warmup/run sizes), after
// which pushes never allocate.
func (d *Detector) growWin() {
	newCap := 2 * len(d.win)
	if min := d.opt.Window + 1; newCap < min {
		newCap = min
	}
	nw := make([]float64, newCap)
	for i := 0; i < d.winLen; i++ {
		j := d.winHead + i
		if j >= len(d.win) {
			j -= len(d.win)
		}
		nw[i] = d.win[j]
	}
	d.win = nw
	d.winHead = 0
}

// record appends one alarm to the retained history, evicting the
// oldest when the MaxAlarms ring is full. Kind totals stay exact.
func (d *Detector) record(a Alarm) {
	d.kindCounts[0]++
	if k := int(a.Kind); k > 0 && k < len(d.kindCounts) {
		d.kindCounts[k]++
	}
	max := d.opt.MaxAlarms
	if max <= 0 || len(d.alarms) < max {
		d.alarms = append(d.alarms, a)
		return
	}
	d.alarms[d.alarmHead] = a
	d.alarmHead++
	if d.alarmHead == max {
		d.alarmHead = 0
	}
}

// Level returns the current baseline level (0 before warmup completes).
func (d *Detector) Level() float64 { return d.level }

// Adjusted maps an observation onto the shift-adjusted series (the
// paper's blue line): the value minus accumulated level movement.
func (d *Detector) Adjusted(v float64) float64 { return v - (d.level - d.base) }

// Alarms returns the retained alarm history in chronological order:
// everything raised so far when Options.MaxAlarms <= 0, otherwise the
// most recent MaxAlarms alarms (AlarmCount totals stay exact either
// way). Until the ring wraps this is the live backing slice; a wrapped
// ring is linearized into a fresh slice.
func (d *Detector) Alarms() []Alarm {
	if d.alarmHead == 0 {
		return d.alarms
	}
	out := make([]Alarm, len(d.alarms))
	n := copy(out, d.alarms[d.alarmHead:])
	copy(out[n:], d.alarms[:d.alarmHead])
	return out
}

// AlarmCount reports the number of alarms of the given kind raised
// over the detector's whole lifetime (0 counts all kinds). Counts are
// exact even after the MaxAlarms ring evicted old alarms.
func (d *Detector) AlarmCount(kind AlarmKind) int {
	if k := int(kind); k >= 0 && k < len(d.kindCounts) {
		return int(d.kindCounts[k])
	}
	return 0
}

// Shifts returns the confirmed level shifts.
func (d *Detector) Shifts() []ShiftRecord { return d.shifts }

// TempChanges reports how many temporary-change episodes were classified.
func (d *Detector) TempChanges() int { return d.tempCount }

// Observations reports how many samples have been fed.
func (d *Detector) Observations() int { return d.n }
