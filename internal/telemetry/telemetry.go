// Package telemetry is GRETEL's self-observation layer: stdlib-only
// counters, gauges, and latency histograms that let the pipeline measure
// its own weight — the prerequisite for the paper's "lightweight" claim
// to stay a measured property rather than an aspiration.
//
// The package is built for hot paths: counters are sharded across cache
// lines and incremented with a single atomic add, histograms are
// HDR-style log-bucketed arrays (one atomic add per observation, ~3%
// relative bucket width) with P50/P90/P99/max read out via linear
// interpolation inside the landing bucket, and spans are two time.Now
// calls around a histogram observation. Everything hangs off a
// process-wide default registry (Snapshot for tests and the experiments
// harness, Handler/Serve in http.go for live introspection).
//
// Instrumented packages obtain their metrics once at init:
//
//	var mIngested = telemetry.GetCounter("core.events_ingested")
//
// and pay only the atomic operation per event thereafter. Metric names
// are dot-separated "<stage>.<what>" (see README.md "Observability" for
// the full inventory).
package telemetry

import (
	"fmt"
	"log"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// shardCount is the number of cache-line-isolated cells a Counter
// spreads increments over. Must be a power of two.
const shardCount = 16

// shard picks a quasi-stable shard for the calling goroutine by hashing
// the address of a stack local: goroutine stacks are allocated far apart,
// so concurrent writers land on different cache lines while a tight loop
// in one goroutine keeps hitting the same shard. (Pointer-to-uintptr is
// the safe direction of the conversion; no pointer is ever materialized
// back.)
func shard() uint64 {
	var x byte
	p := uintptr(unsafe.Pointer(&x))
	return uint64((p>>9)^(p>>17)) & (shardCount - 1)
}

// counterCell pads one shard to a cache line so adjacent shards never
// false-share.
type counterCell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, write-sharded counter. The zero
// value is ready to use; all methods are safe for concurrent use.
type Counter struct {
	cells [shardCount]counterCell
}

// Inc adds one.
func (c *Counter) Inc() { c.cells[shard()].n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.cells[shard()].n.Add(n) }

// Value sums the shards. The result is exact once writers quiesce and a
// consistent-enough lower bound while they run.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Reset zeroes the counter in place (existing *Counter handles stay
// valid — instrumented packages cache them at init).
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].n.Store(0)
	}
}

// Gauge is an instantaneous int64 value (queue depths, open
// connections). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// Histogram bucket layout: values (nanoseconds) below 2^histSubBits land
// in exact unit buckets; above that, each power-of-two range splits into
// histSubCount log-spaced sub-buckets, bounding relative bucket width at
// 1/histSubCount (~3%).
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits + 1) * histSubCount
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v) - 1)
	sub := int((v >> (exp - histSubBits)) & (histSubCount - 1))
	return int(exp-histSubBits+1)*histSubCount + sub
}

// bucketBounds returns the [lo, hi) nanosecond range of a bucket.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < histSubCount {
		return uint64(idx), uint64(idx) + 1
	}
	exp := uint(idx/histSubCount - 1 + histSubBits)
	sub := uint64(idx % histSubCount)
	width := uint64(1) << (exp - histSubBits)
	lo = 1<<exp + sub*width
	return lo, lo + width
}

// Histogram records durations into log-spaced buckets and answers
// quantile queries by interpolating inside the landing bucket. The zero
// value is ready to use; all methods are safe for concurrent use.
// Quantiles read concurrently with writers are approximate (buckets are
// loaded one at a time), which is fine for monitoring.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration (negative clamps to zero).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Span times one stage execution into a histogram.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start opens a span on this histogram.
func (h *Histogram) Start() Span { return Span{h: h, start: time.Now()} }

// End records the elapsed time and returns it. Safe on a zero Span.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d)
	return d
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation, zero when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-th quantile (0 < q < 1) by walking the
// cumulative bucket counts and interpolating linearly inside the bucket
// the rank lands in. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	return quantileScan(func(i int) uint64 { return h.buckets[i].Load() },
		h.count.Load(), h.max.Load(), q)
}

// quantileScan is the shared quantile interpolation over log buckets,
// used by both the live histogram and HistSnap captures. Inside the
// bucket the rank lands in it interpolates linearly over [lo, hi) —
// except in the bucket holding the recorded maximum, where the true
// upper bound is the maximum itself, not the bucket edge: there it
// interpolates over [lo, max]. Without that, the top log bucket reports
// its (up to ~3% high) edge clamped back to max, and a single-sample
// histogram answers every quantile with the bucket boundary instead of
// the one value it actually saw.
func quantileScan(bucket func(int) uint64, total, max uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(max)
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i := 0; i < histBuckets; i++ {
		c := float64(bucket(i))
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			top := float64(hi)
			if max >= lo && max < hi {
				top = float64(max)
			} else {
				top = float64(hi - 1)
			}
			v := float64(lo) + (rank-cum)/c*(top-float64(lo))
			if m := float64(max); v > m {
				v = m
			}
			return time.Duration(v)
		}
		cum += c
	}
	return time.Duration(max)
}

// Reset zeroes the histogram in place.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistStats is a histogram snapshot rendered in operator units.
type HistStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Stats snapshots the histogram.
func (h *Histogram) Stats() HistStats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return HistStats{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}

// HistSnap is a raw histogram capture: the totals plus every bucket
// count, enough to compute quantiles over the *difference* of two
// captures — how the export Sampler turns cumulative histograms into
// per-interval latency series. The zero value is ready for Snap.
type HistSnap struct {
	Count, Sum uint64
	// Max is the cumulative maximum (nanoseconds) at capture time. A
	// histogram does not track per-interval maxima, so after Sub this
	// stays the cumulative value and quantile/max estimates clamp
	// against the tightest bound available (see MaxNS).
	Max     uint64
	Buckets []uint64
}

// Snap captures the histogram into dst, reusing dst.Buckets when it has
// capacity — steady-state captures allocate nothing.
func (h *Histogram) Snap(dst *HistSnap) {
	dst.Count = h.count.Load()
	dst.Sum = h.sum.Load()
	dst.Max = h.max.Load()
	if cap(dst.Buckets) < histBuckets {
		dst.Buckets = make([]uint64, histBuckets)
	}
	dst.Buckets = dst.Buckets[:histBuckets]
	for i := range h.buckets {
		dst.Buckets[i] = h.buckets[i].Load()
	}
}

// Sub subtracts prev from s in place, turning two cumulative captures
// into the per-interval delta. It reports false — leaving s as the full
// cumulative capture — when prev is not a prefix of s (the histogram
// was reset between captures): the caller then treats the whole current
// capture as the interval, the same monotonic-reset rule counters use.
func (s *HistSnap) Sub(prev *HistSnap) bool {
	if prev.Count == 0 {
		return true
	}
	if s.Count < prev.Count || s.Sum < prev.Sum || len(prev.Buckets) != len(s.Buckets) {
		return false
	}
	for i, p := range prev.Buckets {
		if s.Buckets[i] < p {
			return false
		}
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	for i, p := range prev.Buckets {
		s.Buckets[i] -= p
	}
	return true
}

// Quantile answers the q-th quantile over the capture with the same
// interpolation as Histogram.Quantile, bounded by MaxNS — exact for a
// single-sample interval whose sample is the cumulative maximum.
func (s *HistSnap) Quantile(q float64) time.Duration {
	if len(s.Buckets) == 0 {
		return 0
	}
	return quantileScan(func(i int) uint64 { return s.Buckets[i] }, s.Count, s.MaxNS(), q)
}

// MaxNS estimates the capture's maximum observation in nanoseconds: the
// cumulative maximum when it falls inside the highest non-empty bucket
// (exact for a fresh histogram or an interval that produced the max),
// otherwise that bucket's last representable value (within one bucket
// width, ~3%).
func (s *HistSnap) MaxNS() uint64 {
	if s.Count == 0 {
		return 0
	}
	for i := len(s.Buckets) - 1; i >= 0; i-- {
		if s.Buckets[i] == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		if s.Max >= lo && s.Max < hi {
			return s.Max
		}
		if s.Max < hi {
			return s.Max
		}
		return hi - 1
	}
	return 0
}

// Registry is a named collection of metrics. Get-or-create accessors are
// safe for concurrent use; instrumented packages call them once at init
// and cache the returned pointers.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc exposes a computed read-only value (uptime, goroutine
// count, external struct fields) under the given name.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Provenance identifies the build and runtime a snapshot came from, so
// every exported measurement — /metrics JSON, out/telemetry.json from
// the experiments harness — carries the same answer to "which code, on how many cores, produced this".
type Provenance struct {
	// GitRev is the VCS revision stamped into the binary by the go tool
	// ("unknown" when the build carries no VCS info, e.g. test binaries).
	GitRev string `json:"git_rev"`
	// Dirty reports uncommitted changes at build time (vcs.modified).
	Dirty bool `json:"dirty,omitempty"`
	// BuildTime is the commit timestamp stamped by the go tool (vcs.time,
	// RFC 3339), empty when unstamped.
	BuildTime string `json:"build_time,omitempty"`
	// GoVersion is the toolchain that built the process.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the parallelism limit at snapshot time.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// buildProv caches the per-process (build-determined) provenance fields.
var (
	buildProvOnce sync.Once
	buildProv     Provenance
)

// Prov returns the current provenance: build identity read once from
// runtime/debug.ReadBuildInfo, GOMAXPROCS read fresh (it can change at
// run time).
func Prov() Provenance {
	buildProvOnce.Do(func() {
		buildProv.GoVersion = runtime.Version()
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					buildProv.GitRev = s.Value
				case "vcs.time":
					buildProv.BuildTime = s.Value
				case "vcs.modified":
					buildProv.Dirty = s.Value == "true"
				}
			}
		}
		if buildProv.GitRev == "" {
			buildProv.GitRev = "unknown"
		}
	})
	p := buildProv
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return p
}

// Snapshot captures every metric's current value.
type Snapshot struct {
	Provenance Provenance           `json:"provenance"`
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]int64     `json:"gauges"`
	Funcs      map[string]float64   `json:"funcs,omitempty"`
	Histograms map[string]HistStats `json:"histograms"`

	// funcScratch is SnapshotInto's reusable staging area for evaluating
	// registered funcs outside the registry lock (a func is free to call
	// back into the registry; holding the read lock across that call
	// could deadlock against a waiting writer).
	funcScratch []funcEntry
}

type funcEntry struct {
	name string
	fn   func() float64
}

// Snapshot reads the registry into a fresh Snapshot. Counters and
// histograms written concurrently are captured approximately (each
// metric individually consistent).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.SnapshotInto(&snap)
	return snap
}

// SnapshotInto captures every metric into snap, reusing its maps and
// scratch buffers: a periodic scraper (the export Sampler, called once
// per interval) reaches zero steady-state allocations once the metric set
// stabilizes, instead of rebuilding four maps per scrape. The snap must
// not be read concurrently with the next SnapshotInto on it.
func (r *Registry) SnapshotInto(snap *Snapshot) {
	snap.Provenance = Prov()
	if snap.Counters == nil {
		snap.Counters = make(map[string]uint64)
	}
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]int64)
	}
	if snap.Histograms == nil {
		snap.Histograms = make(map[string]HistStats)
	}
	clear(snap.Counters)
	clear(snap.Gauges)
	clear(snap.Histograms)
	clear(snap.Funcs)
	snap.funcScratch = snap.funcScratch[:0]

	r.mu.RLock()
	for k, v := range r.counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range r.gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range r.hists {
		snap.Histograms[k] = v.Stats()
	}
	for k, fn := range r.funcs {
		snap.funcScratch = append(snap.funcScratch, funcEntry{k, fn})
	}
	r.mu.RUnlock()

	if len(snap.funcScratch) > 0 && snap.Funcs == nil {
		snap.Funcs = make(map[string]float64, len(snap.funcScratch))
	}
	for _, e := range snap.funcScratch {
		v := e.fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		snap.Funcs[e.name] = v
	}
}

// Reset zeroes every metric in place; cached pointers stay valid.
// Registered funcs are kept (they compute, they don't accumulate).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// std is the process-wide default registry every pipeline stage reports
// into.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return std.Counter(name) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string) *Gauge { return std.Gauge(name) }

// GetHistogram returns a histogram from the default registry.
func GetHistogram(name string) *Histogram { return std.Histogram(name) }

// Snap snapshots the default registry.
func Snap() Snapshot { return std.Snapshot() }

// Reset zeroes the default registry (tests, per-run harnesses).
func Reset() { std.Reset() }

// logOnce tracks which keys have already produced a log line.
var logOnce sync.Map

// LogFirst logs the formatted message the first time key is seen and
// only counts thereafter — how failure paths surface once in the journal
// without flooding it at wire rate. Reports whether it logged.
func LogFirst(key, format string, args ...any) bool {
	if _, loaded := logOnce.LoadOrStore(key, struct{}{}); loaded {
		return false
	}
	log.Printf(format+" (first occurrence; further ones only counted)", args...)
	return true
}

// String renders a one-line registry summary (debugging aid).
func (s Snapshot) String() string {
	return fmt.Sprintf("telemetry: %d counters, %d gauges, %d histograms",
		len(s.Counters), len(s.Gauges), len(s.Histograms))
}
