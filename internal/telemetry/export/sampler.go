// Package export turns the telemetry registry into InfluxDB line
// protocol: a Sampler walks the registry, computes per-interval deltas,
// and encodes one point per metric. Nothing in the repository ships
// these points anywhere; /metrics is the process's only telemetry
// egress. See DESIGN.md "Decision: no export tier".
package export

import (
	"os"
	"sort"
	"time"

	"gretel/internal/telemetry"
)

// Sampler turns the telemetry registry into per-interval line-protocol
// points. Each Sample call captures every counter, gauge, func, and
// histogram, computes the delta against the previous capture with
// monotonic-reset detection (a value that went backwards means the
// registry was reset; the current capture becomes the interval), and
// appends one point per metric tagged with the process provenance.
//
// The sampler reuses its snapshot buffers and per-histogram captures, so
// a 1s interval stays allocation-free once the metric set stabilizes.
// It is not safe for concurrent use: callers serialize Sample calls.
type Sampler struct {
	reg      *telemetry.Registry
	baseTags []Tag

	snap         telemetry.Snapshot
	prevCounters map[string]uint64
	hists        map[string]*histState

	names   []string           // reusable sorted-iteration scratch
	fields  []Field            // reusable per-point field scratch
	scratch telemetry.HistSnap // reusable interval-delta workspace
}

type histState struct {
	h         *telemetry.Histogram
	prev, cur telemetry.HistSnap
}

// hostTag maps an os.Hostname result onto a usable tag value. A failed
// lookup or an empty name both fall back to "unknown": the line-protocol
// encoder drops tags with empty values entirely (see AppendPoint), which
// would silently change the series key and split one host's history into
// two series the moment the hostname became resolvable again.
func hostTag(host string, err error) string {
	if err != nil || host == "" {
		return "unknown"
	}
	return host
}

// NewSampler builds a sampler over reg. Every point carries the base
// tags host (os.Hostname), proc, and rev (short git revision from the
// build provenance, "+dirty" when the tree was modified).
func NewSampler(reg *telemetry.Registry, proc string) *Sampler {
	prov := telemetry.Prov()
	host := hostTag(os.Hostname())
	rev := prov.GitRev
	if rev == "" {
		rev = "unknown"
	}
	if prov.Dirty {
		// "-dirty", not the conventional "+dirty": a series key put
		// into a URL query verbatim would decode '+' to a space.
		rev += "-dirty"
	}
	if proc == "" {
		proc = "gretel"
	}
	return &Sampler{
		reg: reg,
		baseTags: []Tag{
			{Key: "host", Value: host},
			{Key: "proc", Value: proc},
			{Key: "rev", Value: rev},
		},
		prevCounters: make(map[string]uint64),
		hists:        make(map[string]*histState),
	}
}

// Sample captures the registry, appends one line-protocol point per
// metric onto dst, and returns the extended buffer plus the number of
// points appended. Metrics are emitted in sorted name order so the
// stream is deterministic for a given registry state.
func (s *Sampler) Sample(dst []byte, now time.Time) ([]byte, int) {
	s.reg.SnapshotInto(&s.snap)
	ts := now.UnixNano()
	points := 0

	// Counters: per-interval delta plus the running total. A total that
	// went backwards means the registry was reset mid-run (the
	// experiments harness does this between experiments); the current
	// total is then the whole interval.
	s.names = s.names[:0]
	for name := range s.snap.Counters {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		total := s.snap.Counters[name]
		delta := total
		if prev, ok := s.prevCounters[name]; ok && total >= prev {
			delta = total - prev
		}
		s.prevCounters[name] = total
		s.fields = append(s.fields[:0],
			Field{Key: "delta", Value: float64(delta), Integer: true},
			Field{Key: "total", Value: float64(total), Integer: true},
		)
		dst, points = s.emit(dst, name, ts, points)
	}

	// Gauges and funcs are instantaneous: a single value field.
	s.names = s.names[:0]
	for name := range s.snap.Gauges {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		s.fields = append(s.fields[:0],
			Field{Key: "value", Value: float64(s.snap.Gauges[name]), Integer: true})
		dst, points = s.emit(dst, name, ts, points)
	}
	s.names = s.names[:0]
	for name := range s.snap.Funcs {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		s.fields = append(s.fields[:0], Field{Key: "value", Value: s.snap.Funcs[name]})
		dst, points = s.emit(dst, name, ts, points)
	}

	// Histograms: per-interval quantiles from bucket-level deltas. Sub
	// reports false when the histogram was reset between captures; the
	// cumulative capture then stands in for the interval, mirroring the
	// counter rule.
	s.names = s.names[:0]
	for name := range s.snap.Histograms {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		st := s.hists[name]
		if st == nil {
			st = &histState{h: s.reg.Histogram(name)}
			s.hists[name] = st
		}
		st.h.Snap(&st.cur)
		// Sub mutates its receiver's buckets, and st.cur must stay
		// cumulative to serve as the next interval's baseline — delta
		// the reusable scratch copy instead.
		s.scratch.Count, s.scratch.Sum, s.scratch.Max = st.cur.Count, st.cur.Sum, st.cur.Max
		if cap(s.scratch.Buckets) < len(st.cur.Buckets) {
			s.scratch.Buckets = make([]uint64, len(st.cur.Buckets))
		}
		s.scratch.Buckets = s.scratch.Buckets[:len(st.cur.Buckets)]
		copy(s.scratch.Buckets, st.cur.Buckets)
		interval := &s.scratch
		// Sub reports false on reset, leaving scratch as the full
		// capture — which is then the interval, by the same
		// monotonic-reset rule counters use.
		interval.Sub(&st.prev)
		st.prev, st.cur = st.cur, st.prev // cumulative capture becomes next baseline
		if interval.Count == 0 {
			continue // idle interval: no latency samples to summarize
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.fields = append(s.fields[:0],
			Field{Key: "count", Value: float64(interval.Count), Integer: true},
			Field{Key: "sum_ms", Value: float64(interval.Sum) / float64(time.Millisecond)},
			Field{Key: "p50_ms", Value: ms(interval.Quantile(0.50))},
			Field{Key: "p90_ms", Value: ms(interval.Quantile(0.90))},
			Field{Key: "p99_ms", Value: ms(interval.Quantile(0.99))},
			Field{Key: "max_ms", Value: float64(interval.MaxNS()) / float64(time.Millisecond)},
		)
		dst, points = s.emit(dst, name, ts, points)
	}
	return dst, points
}

// emit encodes one point named name with the staged s.fields.
func (s *Sampler) emit(dst []byte, name string, ts int64, points int) ([]byte, int) {
	p := Point{Name: name, Tags: s.baseTags, Fields: s.fields, TimeNS: ts}
	out, err := AppendPoint(dst, &p)
	if err != nil {
		return dst, points // NaN-only funcs etc.: nothing representable
	}
	return out, points + 1
}
