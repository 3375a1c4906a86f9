package rca_test

// The reference Algorithm 3: the engine as it stood before judgments were
// keyed by window identity — analyze, nodesForOperations, findRootCause,
// resourceAnomalies and levelShift moved here verbatim (only the receiver
// type, the telemetry counters and the source adapter differ). It replays
// every metric window through a fresh detector on every report, so it is
// the oracle production is differentially tested against in
// equivalence_test.go: causes and RCAEvidence must be deep-equal.

import (
	"fmt"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/fingerprint"
	"gretel/internal/metrics"
	"gretel/internal/rca"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
)

// refSource is the StateSource the reference was written against: one
// call returns copies of every metric's samples for a node.
type refSource struct{ src rca.StateSource }

func (s refSource) NodeStates() []agent.NodeState { return s.src.NodeStates() }

func (s refSource) MetricWindow(node string, from, to time.Time) map[string][]metrics.Point {
	out := make(map[string][]metrics.Point, len(metrics.MetricNames))
	for _, m := range metrics.MetricNames {
		if pts := s.src.MetricWindow(node, m, from, to).Points; pts != nil {
			out[m] = append([]metrics.Point(nil), pts...)
		}
	}
	return out
}

// refConfig is the engine's judgment thresholds as the reference
// spells them out.
type refConfig struct {
	Lookback    time.Duration
	CPUHighPct  float64
	DiskLowGB   float64
	MemHighFrac float64
	Shift       tsoutliers.Options
}

type refEngine struct {
	cfg refConfig
	lib *fingerprint.Library
	src refSource
}

// newRefEngine judges at the thresholds the engine judges at.
func newRefEngine(lib *fingerprint.Library, src rca.StateSource) *refEngine {
	cfg := refConfig{
		Lookback: 120 * time.Second, CPUHighPct: 85, DiskLowGB: 5, MemHighFrac: 0.95,
		Shift: tsoutliers.Options{MinSpread: 1.5, Warmup: 10},
	}
	return &refEngine{cfg: cfg, lib: lib, src: refSource{src}}
}

// explain is the reference ExplainHook.
func (e *refEngine) explain(rep *core.Report) ([]core.RootCause, *tracestore.RCAEvidence) {
	ev := &tracestore.RCAEvidence{}
	causes := e.analyze(rep, ev)
	return causes, ev
}

// analyze is the shared implementation; when ev is non-nil it records
// the evidence behind the verdict. The recording never changes the
// verdict: both paths run the identical node walks and judgments.
func (e *refEngine) analyze(rep *core.Report, ev *tracestore.RCAEvidence) []core.RootCause {
	at := rep.Fault.Time
	nodes := e.src.NodeStates()
	opNodes := e.nodesForOperations(rep.Candidates, nodes)

	errorNodes := map[string]bool{}
	for i := range rep.Errors {
		ev := &rep.Errors[i]
		if ev.SrcNode != "" {
			errorNodes[ev.SrcNode] = true
		}
		if ev.DstNode != "" {
			errorNodes[ev.DstNode] = true
		}
	}
	if len(rep.Errors) == 0 {
		// Performance faults carry no error messages; start from the
		// slow message's endpoints.
		if rep.Fault.SrcNode != "" {
			errorNodes[rep.Fault.SrcNode] = true
		}
		if rep.Fault.DstNode != "" {
			errorNodes[rep.Fault.DstNode] = true
		}
	}

	var first, rest []agent.NodeState
	for _, n := range nodes {
		switch {
		case errorNodes[n.Name]:
			first = append(first, n)
		case opNodes[n.Name]:
			rest = append(rest, n)
		}
	}

	causes := e.findRootCause(first, at, "error", ev)
	if len(causes) == 0 {
		causes = e.findRootCause(rest, at, "operation", ev)
	}
	return causes
}

// nodesForOperations maps the matched operations to deployment nodes via
// their fingerprints' services. nova-compute and neutron-agent APIs map
// to every compute host.
func (e *refEngine) nodesForOperations(names []string, nodes []agent.NodeState) map[string]bool {
	svcWanted := map[trace.Service]bool{}
	for _, name := range names {
		fp := e.lib.ByName(name)
		if fp == nil {
			continue
		}
		for _, api := range fp.APIs {
			svcWanted[api.Service] = true
			if api.Service == trace.SvcNovaCompute || api.Service == trace.SvcNeutronAgent {
				svcWanted[trace.SvcNovaCompute] = true
			}
		}
	}
	out := map[string]bool{}
	for _, n := range nodes {
		if svcWanted[n.Service] {
			out[n.Name] = true
		}
		if n.Service == trace.SvcNovaCompute &&
			(svcWanted[trace.SvcNovaCompute] || svcWanted[trace.SvcNeutronAgent]) {
			out[n.Name] = true
		}
	}
	return out
}

// findRootCause implements FIND_ROOT_CAUSE over a node list: anomalies in
// resource metadata, then software-dependency health. With ev non-nil
// each examined node is appended to the evidence — its stage, watcher
// statuses, metric windows, and the findings it produced.
func (e *refEngine) findRootCause(nodes []agent.NodeState, at time.Time, stage string, ev *tracestore.RCAEvidence) []core.RootCause {
	var out []core.RootCause
	for _, n := range nodes {
		var rec *tracestore.RCANode
		if ev != nil {
			ev.Nodes = append(ev.Nodes, tracestore.RCANode{Node: n.Name, Stage: stage, Up: n.Up})
			rec = &ev.Nodes[len(ev.Nodes)-1]
			for _, dep := range n.Deps {
				rec.Deps = append(rec.Deps, tracestore.RCADep{Name: dep.Name, Running: dep.Running})
			}
		}
		found := e.resourceAnomalies(n, at, rec)
		for _, dep := range n.Deps {
			if !dep.Running || !n.Up {
				detail := fmt.Sprintf("dependency %s is not running", dep.Name)
				if !n.Up {
					detail = fmt.Sprintf("node down (dependency %s unreachable)", dep.Name)
				}
				found = append(found, core.RootCause{Node: n.Name, Kind: "software", Detail: detail})
			}
		}
		if rec != nil {
			for _, c := range found {
				rec.Findings = append(rec.Findings, c.Detail)
			}
		}
		out = append(out, found...)
	}
	return out
}

// resourceAnomalies judges one node's metric windows: hard thresholds
// (disk nearly full, CPU pegged, memory exhausted) plus level shifts in
// the CPU and network series. With rec non-nil every inspected series is
// recorded in a fixed order (disk, memory, CPU, network) — the recording
// never alters the judgment.
func (e *refEngine) resourceAnomalies(n agent.NodeState, at time.Time, rec *tracestore.RCANode) []core.RootCause {
	var out []core.RootCause
	from := at.Add(-e.cfg.Lookback)
	snap := e.src.MetricWindow(n.Name, from, at)

	record := func(name string, pts []metrics.Point, shifted bool, to float64) {
		if rec == nil {
			return
		}
		st := metrics.Summarize(pts)
		rec.Metrics = append(rec.Metrics, tracestore.RCAMetric{
			Name: name, Samples: len(pts), Last: pts[len(pts)-1].Value,
			Mean: st.Mean, Shifted: shifted, ShiftTo: to,
		})
	}

	if pts := snap[metrics.MetricDiskFree]; len(pts) > 0 {
		record(metrics.MetricDiskFree, pts, false, 0)
		if last := pts[len(pts)-1].Value; last < e.cfg.DiskLowGB {
			out = append(out, core.RootCause{Node: n.Name, Kind: "resource",
				Detail: fmt.Sprintf("low free disk space (%.1f GB)", last)})
		}
	}
	if pts := snap[metrics.MetricMemUsed]; len(pts) > 0 {
		record(metrics.MetricMemUsed, pts, false, 0)
		if last := pts[len(pts)-1].Value; n.MemTotalMB > 0 && last > e.cfg.MemHighFrac*n.MemTotalMB {
			out = append(out, core.RootCause{Node: n.Name, Kind: "resource",
				Detail: fmt.Sprintf("memory exhaustion (%.0f MB used)", last)})
		}
	}
	if pts := snap[metrics.MetricCPU]; len(pts) > 0 {
		st := metrics.Summarize(pts)
		shifted, to := e.levelShift(pts)
		record(metrics.MetricCPU, pts, shifted, to)
		switch {
		case st.Mean > e.cfg.CPUHighPct:
			out = append(out, core.RootCause{Node: n.Name, Kind: "resource",
				Detail: fmt.Sprintf("sustained high CPU (mean %.1f%%)", st.Mean)})
		case shifted && to > st.Min+10:
			out = append(out, core.RootCause{Node: n.Name, Kind: "resource",
				Detail: fmt.Sprintf("CPU usage surge (level shift to %.1f%%)", to)})
		}
	}
	if pts := snap[metrics.MetricNet]; len(pts) > 0 {
		shifted, to := e.levelShift(pts)
		record(metrics.MetricNet, pts, shifted, to)
		if shifted && to > 50 {
			out = append(out, core.RootCause{Node: n.Name, Kind: "resource",
				Detail: fmt.Sprintf("network throughput surge (%.1f Mbps)", to)})
		}
	}
	return out
}

// levelShift replays a metric window through a fresh LS detector and
// reports whether a shift occurred and its final level.
func (e *refEngine) levelShift(pts []metrics.Point) (bool, float64) {
	det := tsoutliers.New(e.cfg.Shift)
	for _, p := range pts {
		det.Observe(p.Time, p.Value)
	}
	shifts := det.Shifts()
	if len(shifts) == 0 {
		return false, 0
	}
	return true, shifts[len(shifts)-1].To
}
