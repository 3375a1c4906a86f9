// Package metrics is the collectd analogue: it periodically samples every
// node's resource state into named time series and serves windowed queries
// to the root-cause analysis engine.
//
// The paper installed collectd on all OpenStack nodes with a 1 s poll
// frequency (§6, §7 "Experimental setup") and shipped snapshots to the
// analyzer. Here the collector polls cluster nodes on the simulation
// clock and keeps the series in memory.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gretel/internal/cluster"
	"gretel/internal/simclock"
)

// Standard metric names, one per collectd plugin the paper relied on.
const (
	MetricCPU      = "cpu"
	MetricMemUsed  = "mem_used_mb"
	MetricDiskFree = "disk_free_gb"
	MetricNet      = "net_mbps"
	MetricDiskIOPS = "disk_iops"
)

// MetricNames lists every metric the collector records per node.
var MetricNames = []string{MetricCPU, MetricMemUsed, MetricDiskFree, MetricNet, MetricDiskIOPS}

// Point is one sample.
type Point struct {
	Time  time.Time
	Value float64
}

// Series is an append-only time series in nondecreasing time order.
// Safe for concurrent use.
type Series struct {
	mu     sync.RWMutex
	name   string
	retain time.Duration // trim horizon behind the newest sample; 0 keeps all
	points []Point
	base   uint64 // lifetime ordinal of points[0]: the samples trimmed so far
}

// Name returns the series key ("node/metric").
func (s *Series) Name() string { return s.name }

// Append records a sample and reports whether the series took it: one
// older than the newest is dropped (equal time is kept), because windows
// are binary-searched and identified by ordinal. Trimming only advances
// the slice head — storage a Window aliases is never rewritten.
func (s *Series) Append(t time.Time, v float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].Time) {
		return false
	}
	s.points = append(s.points, Point{t, v})
	if s.retain > 0 {
		k := 0
		for cut := t.Add(-s.retain); s.points[k].Time.Before(cut); k++ {
		}
		s.points, s.base = s.points[k:], s.base+uint64(k)
	}
	return true
}

// Len reports the number of retained samples.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.points)
}

// Window is a zero-copy view of consecutive samples of one series.
// Points aliases the series' storage and must not be modified.
type Window struct {
	Points []Point
	ID     WindowID
}

// WindowID identifies a window's content within its series: the lifetime
// ordinals [Lo, Hi) of its samples. A series only appends (Append drops
// what would land out of order) and ordinals survive trimming, so equal
// IDs mean equal samples. Every empty window has the zero ID.
type WindowID struct{ Lo, Hi uint64 }

// Window returns the samples with from <= t <= to; a nil series has none.
func (s *Series) Window(from, to time.Time) Window {
	if s == nil {
		return Window{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.points), func(i int) bool { return !s.points[i].Time.Before(from) })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].Time.After(to) })
	if lo == hi {
		return Window{}
	}
	return Window{s.points[lo:hi:hi], WindowID{s.base + uint64(lo), s.base + uint64(hi)}}
}

type seriesKey struct{ node, metric string }

// Collector polls nodes and stores their resource series.
type Collector struct {
	// Retention, when positive, trims each series to that horizon behind
	// its newest sample. Set it before the first Record.
	Retention time.Duration

	mu     sync.RWMutex
	series map[seriesKey]*Series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{series: make(map[seriesKey]*Series)}
}

// Record appends one sample to the node/metric series, creating it on
// first use, and reports whether the series took it (see Series.Append).
func (c *Collector) Record(node, metric string, t time.Time, v float64) bool {
	s := c.Series(node, metric)
	if s == nil {
		s = c.create(seriesKey{node, metric})
	}
	return s.Append(t, v)
}

func (c *Collector) create(k seriesKey) *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.series[k]
	if !ok {
		s = &Series{name: k.node + "/" + k.metric, retain: c.Retention}
		c.series[k] = s
	}
	return s
}

// Series returns the series for node/metric, or nil if never recorded.
func (c *Collector) Series(node, metric string) *Series {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.series[seriesKey{node, metric}]
}

// PollNode samples all resource metrics of a node at time t.
func (c *Collector) PollNode(n *cluster.Node, t time.Time) {
	r := n.Sample()
	c.Record(n.Name, MetricCPU, t, r.CPUPercent)
	c.Record(n.Name, MetricMemUsed, t, r.MemUsedMB)
	c.Record(n.Name, MetricDiskFree, t, r.DiskFreeGB)
	c.Record(n.Name, MetricNet, t, r.NetMbps)
	c.Record(n.Name, MetricDiskIOPS, t, r.DiskIOPS)
}

// StartPolling schedules periodic polls of every fabric node on the
// simulation clock until stop returns true. The paper used a 1 s period.
func (c *Collector) StartPolling(f *cluster.Fabric, sim *simclock.Sim, period time.Duration, stop func() bool) {
	sim.Every(period, stop, func() {
		for _, n := range f.Nodes() {
			if n.Up {
				c.PollNode(n, sim.Now())
			}
		}
	})
}

// Stats summarizes a set of points.
type Stats struct {
	N        int
	Min, Max float64
	Mean     float64
	Last     float64
}

// Summarize computes summary statistics over points.
func Summarize(pts []Point) Stats {
	st := Stats{N: len(pts)}
	if len(pts) == 0 {
		return st
	}
	st.Min, st.Max = pts[0].Value, pts[0].Value
	sum := 0.0
	for _, p := range pts {
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
		sum += p.Value
	}
	st.Mean = sum / float64(len(pts))
	st.Last = pts[len(pts)-1].Value
	return st
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d min=%.2f mean=%.2f max=%.2f last=%.2f", s.N, s.Min, s.Mean, s.Max, s.Last)
}
