// Package rca implements GRETEL's root-cause analysis (Algorithm 3):
// given a fault report — the matched operations, the error messages in
// the snapshot, and their source/destination nodes — it inspects
// distributed state collected passively (resource time series from the
// collectd analogue, software-dependency watcher status) to name the
// likely root cause.
//
// Per the paper, the engine first examines the nodes the error messages
// touch; only if nothing anomalous is found there does it widen to the
// remaining nodes participating in the operation, since the true root
// cause may sit upstream of where the fault surfaced (§5.4, §7.2.3).
//
// The engine reads distributed state through the StateSource interface:
// in-process runs adapt the simulated fabric directly (NewFabricSource);
// the split analyzer service accumulates agents' StateUpdates into a
// Store (NewStore) — the collectd-to-analyzer pipeline of §6.
package rca

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/core"
	"gretel/internal/fingerprint"
	"gretel/internal/metrics"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
)

// RCA telemetry: how often the hook runs and what it finds, by cause
// class (the latency of each invocation is timed by the analyzer's
// core.rca histogram around the hook call). windows.judged counts node
// examinations that replayed the node's metric windows, windows.reused
// those served from the node's last judgment.
var (
	mInvocations      = telemetry.GetCounter("rca.invocations")
	mFindingsResource = telemetry.GetCounter("rca.findings.resource")
	mFindingsSoftware = telemetry.GetCounter("rca.findings.software")
	mWindowsJudged    = telemetry.GetCounter("rca.windows.judged")
	mWindowsReused    = telemetry.GetCounter("rca.windows.reused")
	mStaleSamples     = telemetry.GetCounter("rca.store.stale_samples")
)

// sampleHorizon is how far behind its newest sample a Store keeps each
// metric series — the bound on the analyzer service's sample memory.
const sampleHorizon = 10 * time.Minute

// StateSource is the engine's view of the deployment's distributed state.
type StateSource interface {
	// NodeStates returns the current node inventory with dependency
	// health. The engine only reads the slice.
	NodeStates() []agent.NodeState
	// MetricWindow returns a node's samples of one metric in [from, to].
	MetricWindow(node, metric string, from, to time.Time) metrics.Window
}

// The anomaly judgments over node state: each node's metric windows
// reach lookback behind the fault (within the sampleHorizon a Store
// keeps), and CPU sustained above cpuHighPct, free disk below diskLowGB
// and memory use above memHighFrac of the node's total are resource
// causes.
const (
	lookback    = 120 * time.Second
	cpuHighPct  = 85
	diskLowGB   = 5
	memHighFrac = 0.95
)

// Config is empty: the judgments' thresholds are the constants above.
// It remains only because bench/, frozen between [benchmark] PRs, still
// passes rca.Config{} to NewEngine; the ROADMAP's "Refresh the benchmark
// contract" item deletes it together with NewEngine's parameter.
type Config struct{}

// Engine evaluates root causes against a deployment's observable state.
// Safe for concurrent use.
type Engine struct {
	lib *fingerprint.Library
	src StateSource

	mu     sync.Mutex
	judged map[string]*judgment // by node: its last resource judgment
	det    *tsoutliers.Detector // reset and replayed per judged series
}

// judgedMetrics are the series a judgment reads, in evidence order.
var judgedMetrics = [...]string{metrics.MetricDiskFree, metrics.MetricMemUsed, metrics.MetricCPU, metrics.MetricNet}

// judgment is one node's resource verdict and the evidence behind it,
// kept with everything it was computed from: the judged windows, by
// identity (equal IDs mean equal samples — metrics.WindowID), and the one
// NodeState field the thresholds read. At a 1 s poll every report between
// two polls sees the same windows, so it serves them all.
type judgment struct {
	windows    [len(judgedMetrics)]metrics.WindowID
	memTotalMB float64
	causes     []core.RootCause
	metrics    []tracestore.RCAMetric
}

// NewEngine builds the engine over the fingerprint library (for
// operation→node mapping) and a state source. The level-shift detector
// replayed over each metric window floors its spread at 1.5 and warms
// up on 10 samples.
func NewEngine(lib *fingerprint.Library, src StateSource, _ Config) *Engine {
	return &Engine{lib: lib, src: src, judged: make(map[string]*judgment),
		det: tsoutliers.New(tsoutliers.Options{MinSpread: 1.5, Warmup: 10})}
}

// fabricSource adapts the in-process simulation (fabric + collector).
type fabricSource struct {
	fabric    *cluster.Fabric
	collector *metrics.Collector
}

// NewFabricSource adapts a simulated fabric and its metrics collector to
// the StateSource interface.
func NewFabricSource(f *cluster.Fabric, c *metrics.Collector) StateSource {
	return &fabricSource{fabric: f, collector: c}
}

func (s *fabricSource) NodeStates() []agent.NodeState { return agent.NodeStates(s.fabric) }

func (s *fabricSource) MetricWindow(node, metric string, from, to time.Time) metrics.Window {
	return s.collector.Series(node, metric).Window(from, to)
}

// Store accumulates StateUpdates streamed by remote agents and serves
// them as a StateSource — the analyzer-service side of the collectd
// pipeline. Safe for concurrent use.
type Store struct {
	mu        sync.RWMutex
	nodes     []agent.NodeState // name-sorted; Apply replaces it, never edits it
	collector *metrics.Collector
}

// NewStore returns an empty state store.
func NewStore() *Store {
	c := metrics.NewCollector()
	c.Retention = sampleHorizon
	return &Store{collector: c}
}

// Apply merges one update. Agents are many and their clocks their own: a
// sample older than its series' newest is dropped and counted in
// rca.store.stale_samples (see metrics.Series.Append).
func (s *Store) Apply(u agent.StateUpdate) {
	if len(u.Nodes) > 0 {
		s.mu.Lock()
		nodes := slices.Clone(s.nodes)
		for _, n := range u.Nodes {
			i, found := slices.BinarySearchFunc(nodes, n.Name, func(e agent.NodeState, name string) int {
				return strings.Compare(e.Name, name)
			})
			if !found {
				nodes = slices.Insert(nodes, i, n)
			}
			nodes[i] = n
		}
		s.nodes = nodes
		s.mu.Unlock()
	}
	for _, m := range u.Samples {
		if !s.collector.Record(m.Node, m.Metric, m.Time, m.Value) {
			mStaleSamples.Inc()
		}
	}
}

// NodeStates implements StateSource: the name-sorted inventory as of the
// last Apply.
func (s *Store) NodeStates() []agent.NodeState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodes
}

// MetricWindow implements StateSource.
func (s *Store) MetricWindow(node, metric string, from, to time.Time) metrics.Window {
	return s.collector.Series(node, metric).Window(from, to)
}

// Hook adapts the engine to the analyzer's RCA hook signature.
func (e *Engine) Hook() func(*core.Report) []core.RootCause {
	return e.Analyze
}

// ExplainHook adapts the engine to the analyzer's explaining RCA hook
// signature: the same verdict as Hook, plus the evidence — every node
// examined, in order, with the watcher statuses and metric windows
// judged on it. Install with core.Analyzer.SetRCAExplain.
func (e *Engine) ExplainHook() func(*core.Report) ([]core.RootCause, *tracestore.RCAEvidence) {
	return func(rep *core.Report) ([]core.RootCause, *tracestore.RCAEvidence) {
		ev := &tracestore.RCAEvidence{}
		return e.analyze(rep, ev), ev
	}
}

// Analyze implements GET_ROOT_CAUSE: error nodes first, then the
// remaining operation nodes.
func (e *Engine) Analyze(rep *core.Report) []core.RootCause {
	return e.analyze(rep, nil)
}

// analyze walks the nodes the error messages touch, and only if nothing
// is anomalous there the remaining nodes of the matched operations.
// With ev non-nil each examined node is appended to the evidence.
func (e *Engine) analyze(rep *core.Report, ev *tracestore.RCAEvidence) []core.RootCause {
	mInvocations.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	errs := rep.Errors
	if len(errs) == 0 {
		// Performance faults carry no error messages; start from the
		// slow message's endpoints.
		errs = []trace.Event{rep.Fault}
	}
	nodes := e.src.NodeStates()
	var causes []core.RootCause
	for i := range nodes {
		if touches(errs, nodes[i].Name) {
			causes = e.examine(&nodes[i], rep.Fault.Time, "error", causes, ev)
		}
	}
	if len(causes) == 0 {
		wanted := e.operationServices(rep.Candidates)
		for i := range nodes {
			if n := &nodes[i]; wanted&(1<<n.Service) != 0 && !touches(errs, n.Name) {
				causes = e.examine(n, rep.Fault.Time, "operation", causes, ev)
			}
		}
	}
	return causes
}

// touches reports whether one of the messages has the node as an endpoint.
func touches(msgs []trace.Event, node string) bool {
	for i := range msgs {
		if node != "" && (msgs[i].SrcNode == node || msgs[i].DstNode == node) {
			return true
		}
	}
	return false
}

// operationServices is the set of services whose nodes take part in the
// matched operations (a bitmask, as fingerprint.Services). nova-compute
// and neutron-agent APIs both map to the compute hosts.
func (e *Engine) operationServices(names []string) uint32 {
	var set uint32
	for _, name := range names {
		if fp := e.lib.ByName(name); fp != nil {
			set |= fp.Services()
		}
	}
	if set&(1<<trace.SvcNeutronAgent) != 0 {
		set |= 1 << trace.SvcNovaCompute
	}
	return set
}

// examine implements FIND_ROOT_CAUSE for one node: anomalies in resource
// metadata, then software-dependency health, appended to out.
func (e *Engine) examine(n *agent.NodeState, at time.Time, stage string, out []core.RootCause, ev *tracestore.RCAEvidence) []core.RootCause {
	j := e.judge(n, at)
	first := len(out)
	out = append(out, j.causes...)
	mFindingsResource.Add(uint64(len(j.causes)))
	for _, dep := range n.Deps {
		if !dep.Running || !n.Up {
			detail := fmt.Sprintf("dependency %s is not running", dep.Name)
			if !n.Up {
				detail = fmt.Sprintf("node down (dependency %s unreachable)", dep.Name)
			}
			out = append(out, core.RootCause{Node: n.Name, Kind: "software", Detail: detail})
			mFindingsSoftware.Inc()
		}
	}
	if ev != nil {
		rec := tracestore.RCANode{Node: n.Name, Stage: stage, Up: n.Up,
			Metrics: append([]tracestore.RCAMetric(nil), j.metrics...)}
		for _, dep := range n.Deps {
			rec.Deps = append(rec.Deps, tracestore.RCADep{Name: dep.Name, Running: dep.Running})
		}
		for _, c := range out[first:] {
			rec.Findings = append(rec.Findings, c.Detail)
		}
		ev.Nodes = append(ev.Nodes, rec)
	}
	return out
}

// judge returns the node's resource judgment over the lookback window
// ending at the fault: its last one when that read the same windows,
// otherwise a fresh one that replaces it.
func (e *Engine) judge(n *agent.NodeState, at time.Time) *judgment {
	var wins [len(judgedMetrics)]metrics.Window
	var ids [len(judgedMetrics)]metrics.WindowID
	for i, m := range judgedMetrics {
		wins[i] = e.src.MetricWindow(n.Name, m, at.Add(-lookback), at)
		ids[i] = wins[i].ID
	}
	j := e.judged[n.Name]
	if j != nil && j.windows == ids && j.memTotalMB == n.MemTotalMB {
		mWindowsReused.Inc()
		return j
	}
	mWindowsJudged.Inc()
	if j == nil {
		j = &judgment{}
		e.judged[n.Name] = j
	}
	j.windows, j.memTotalMB, j.causes, j.metrics = ids, n.MemTotalMB, j.causes[:0], j.metrics[:0]
	for i, m := range judgedMetrics {
		if pts := wins[i].Points; len(pts) > 0 {
			e.judgeSeries(j, n, m, pts)
		}
	}
	return j
}

// judgeSeries judges one non-empty metric window: hard thresholds (disk
// nearly full, memory exhausted, CPU pegged) plus level shifts in the
// CPU and network series.
func (e *Engine) judgeSeries(j *judgment, n *agent.NodeState, metric string, pts []metrics.Point) {
	st := metrics.Summarize(pts)
	var shifted bool
	var to float64
	detail := ""
	switch metric {
	case metrics.MetricDiskFree:
		if st.Last < diskLowGB {
			detail = fmt.Sprintf("low free disk space (%.1f GB)", st.Last)
		}
	case metrics.MetricMemUsed:
		if n.MemTotalMB > 0 && st.Last > memHighFrac*n.MemTotalMB {
			detail = fmt.Sprintf("memory exhaustion (%.0f MB used)", st.Last)
		}
	case metrics.MetricCPU:
		shifted, to = e.levelShift(pts)
		switch {
		case st.Mean > cpuHighPct:
			detail = fmt.Sprintf("sustained high CPU (mean %.1f%%)", st.Mean)
		case shifted && to > st.Min+10:
			detail = fmt.Sprintf("CPU usage surge (level shift to %.1f%%)", to)
		}
	case metrics.MetricNet:
		if shifted, to = e.levelShift(pts); shifted && to > 50 {
			detail = fmt.Sprintf("network throughput surge (%.1f Mbps)", to)
		}
	}
	j.metrics = append(j.metrics, tracestore.RCAMetric{
		Name: metric, Samples: len(pts), Last: st.Last, Mean: st.Mean, Shifted: shifted, ShiftTo: to,
	})
	if detail != "" {
		j.causes = append(j.causes, core.RootCause{Node: n.Name, Kind: "resource", Detail: detail})
	}
}

// levelShift replays a metric window through the engine's detector,
// reset to its fresh state, and reports whether a shift occurred and its
// final level.
func (e *Engine) levelShift(pts []metrics.Point) (bool, float64) {
	e.det.Reset()
	for _, p := range pts {
		e.det.Observe(p.Time, p.Value)
	}
	shifts := e.det.Shifts()
	if len(shifts) == 0 {
		return false, 0
	}
	return true, shifts[len(shifts)-1].To
}
