package rca_test

// Full-stack integration tests reproducing the paper's §7.2 case studies:
// each drives the simulated deployment through a scripted fault, lets the
// analyzer localize the operation, and checks the root-cause engine names
// the planted cause.

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/openstack"
	"gretel/internal/rca"
	"gretel/internal/scenario"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
)

// startBackground launches a few healthy core operations for ambient
// traffic.
func startBackground(h *scenario.Harness, n int) {
	ops := openstack.CoreOperations()
	for i := 0; i < n; i++ {
		h.D.Start(ops[i%len(ops)], nil)
	}
}

func findCause(t *testing.T, reps []*core.Report, node, kind, substr string) *core.Report {
	t.Helper()
	for _, rep := range reps {
		for _, rc := range rep.RootCauses {
			if rc.Node == node && rc.Kind == kind && strings.Contains(rc.Detail, substr) {
				return rep
			}
		}
	}
	var all []string
	for _, rep := range reps {
		for _, rc := range rep.RootCauses {
			all = append(all, rc.String())
		}
	}
	t.Fatalf("no root cause %q/%q on %s; reports=%d causes=%v", kind, substr, node, len(reps), all)
	return nil
}

// checkTruthJoin asserts, once the test ends, that the harness's
// wire-identifier join grades every report exactly as the truth the
// monitor writes onto events does.
func checkTruthJoin(t *testing.T, h *scenario.Harness) {
	t.Cleanup(func() {
		for _, rep := range h.Reports() {
			id, op := h.Truth(rep)
			if id != rep.Fault.OpID || op != rep.TruthOp || h.Hit(rep) != rep.Hit() {
				t.Errorf("report at %v: join (%d, %s, hit %v), decoration (%d, %s, hit %v)",
					rep.Fault.Time, id, op, h.Hit(rep), rep.Fault.OpID, rep.TruthOp, rep.Hit())
			}
		}
	})
}

// caseStudy is one §7.2 case study: the harness options, and stage,
// which plants the fault, starts the operations, runs the simulation to
// its end and returns the instance of the operation under study (nil
// when it starts a stream of them).
type caseStudy struct {
	opts  scenario.Options
	stage func(h *scenario.Harness) *openstack.Instance
}

// run stages the case study on a fresh harness in explain mode, with
// every report's causes checked against the reference engine. Blind, the
// analyzer sees every event with the ground-truth OpID and OpName
// zeroed, as a deployment does; decorated, the truth join is checked.
func (cs caseStudy) run(t *testing.T, blind bool) (*scenario.Harness, *openstack.Instance) {
	h := scenario.New(cs.opts)
	h.Analyzer.SetExplain(tracestore.New(0))
	checkAgainstReference(t, h)
	if blind {
		ingest := h.Sink
		h.Sink = func(ev trace.Event) {
			ev.OpID, ev.OpName = 0, ""
			ingest(ev)
		}
	} else {
		checkTruthJoin(t, h)
	}
	return h, cs.stage(h)
}

// failedImageUpload is §7.2.1: image upload fails with REST 413 from
// Glance, whose node is low on disk.
var failedImageUpload = caseStudy{
	opts: scenario.Options{Seed: 101, WithRCA: true, PollPeriod: time.Second},
	stage: func(h *scenario.Harness) *openstack.Instance {
		glance := h.D.Fabric.NodeFor(trace.SvcGlance)
		faults.ExhaustDisk(glance, 0.8)
		h.Plan.FailAPI(trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"),
			413, "Request Entity Too Large: insufficient store space")

		startBackground(h, 4)
		inst := h.D.Start(openstack.OpImageUpload(), nil)
		h.Run(30 * time.Minute)
		h.Finish()
		return inst
	},
}

// TestCaseStudyFailedImageUpload reproduces §7.2.1: image upload fails
// with REST 413 from Glance; RCA finds low free disk on the Glance node.
func TestCaseStudyFailedImageUpload(t *testing.T) {
	h, _ := failedImageUpload.run(t, false)

	rep := findCause(t, h.Reports(), "glance-node", "resource", "disk")
	if _, truth := h.Truth(rep); !h.Hit(rep) {
		t.Fatalf("operation not localized: candidates=%v truth=%s", rep.Candidates, truth)
	}
	// The paper narrowed this fault to exactly one operation.
	if len(rep.Candidates) != 1 || rep.Candidates[0] != "image-upload" {
		t.Fatalf("candidates = %v, want [image-upload]", rep.Candidates)
	}
	if rep.Fault.Status != 413 {
		t.Fatalf("fault status = %d", rep.Fault.Status)
	}
}

// neutronLatency is §7.2.2: a CPU surge on the Neutron server under a
// steady VM-create stream.
var neutronLatency = caseStudy{
	opts: scenario.Options{
		Seed:       103,
		WithRCA:    true,
		PollPeriod: time.Second,
		Analyzer: core.Config{
			PerfDetection: true,
			Latency:       tsoutliers.Options{Warmup: 10, MinRun: 3, MinSpread: 0.01},
		},
	},
	stage: func(h *scenario.Harness) *openstack.Instance {
		neutron := h.D.Fabric.NodeFor(trace.SvcNeutron)

		// Steady VM-create stream to establish latency baselines, then
		// the surge.
		stop := false
		h.D.Sim.Every(20*time.Second, func() bool { return stop }, func() {
			h.D.Start(openstack.OpVMCreate(), nil)
		})
		h.Run(10 * time.Minute)
		restore := faults.InjectCPUSurge(neutron, 90)
		h.Run(15 * time.Minute)
		restore()
		stop = true
		h.Finish()
		return nil
	},
}

// TestCaseStudyNeutronLatency reproduces §7.2.2: a CPU surge on the
// Neutron server inflates its API latencies; GRETEL flags a performance
// fault and attributes it to the Neutron node's CPU.
func TestCaseStudyNeutronLatency(t *testing.T) {
	h, _ := neutronLatency.run(t, false)

	if h.Analyzer.Stats.PerfAlarms == 0 {
		t.Fatal("no latency alarms under CPU surge")
	}
	var perf *core.Report
	for _, rep := range h.Reports() {
		if rep.Kind == core.Performance && rep.Fault.API.Service == trace.SvcNeutron {
			perf = rep
			break
		}
	}
	if perf == nil {
		t.Fatal("no performance report for a Neutron API")
	}
	findCause(t, []*core.Report{perf}, "neutron-node", "resource", "CPU")
	if !h.Hit(perf) {
		t.Fatalf("operation not identified: %v", perf.Candidates)
	}
}

// linuxBridgeAgent is §7.2.3: the linuxbridge agent is down on every
// compute host, so scheduling a VM fails with "No valid host was found".
var linuxBridgeAgent = caseStudy{
	opts: scenario.Options{Seed: 107, WithRCA: true, PollPeriod: time.Second},
	stage: func(h *scenario.Harness) *openstack.Instance {
		for _, n := range h.D.ComputeNodes() {
			faults.StopDependency(n, "neutron-plugin-linuxbridge-agent")
		}
		h.Plan.Add(faults.Rule{
			Service:     trace.SvcNovaCompute,
			WhenDepDown: "neutron-plugin-linuxbridge-agent",
			StepIndex:   -1,
			Outcome: openstack.Outcome{Status: 1,
				ErrText: "NoValidHost: No valid host was found. There are not enough hosts available."},
		})

		startBackground(h, 3)
		inst := h.D.Start(openstack.OpVMCreate(), nil)
		h.Run(time.Hour)
		h.Finish()
		return inst
	},
}

// TestCaseStudyLinuxBridgeAgent reproduces §7.2.3: the linuxbridge agent
// crashes on the compute hosts, VM creation fails with "No valid host was
// found", and RCA — finding nothing on the error nodes — expands upstream
// to the compute hosts and names the crashed agent. The upstream RPC
// error must be found from the wire alone, so the study also runs blind.
func TestCaseStudyLinuxBridgeAgent(t *testing.T) {
	for _, name := range []string{"decorated", "blind"} {
		t.Run(name, func(t *testing.T) {
			h, _ := linuxBridgeAgent.run(t, name == "blind")

			rep := findCause(t, h.Reports(), "compute-1", "software", "neutron-plugin-linuxbridge-agent")
			if _, truth := h.Truth(rep); !h.Hit(rep) || truth != "vm-create" {
				t.Fatalf("vm-create not localized: %v (truth %s)", rep.Candidates, truth)
			}
			// The offending API is the upstream RPC, not the relayed REST
			// error.
			if rep.OffendingAPI.Kind != trace.RPC {
				t.Fatalf("offending API = %v, want the RPC", rep.OffendingAPI)
			}
			// The RPC error and the relayed REST error are analyzed
			// together.
			if len(rep.Errors) < 2 {
				t.Fatalf("snapshot errors = %d, want >= 2", len(rep.Errors))
			}
		})
	}
}

// ntpFailure is §7.2.4: the NTP agent on the Cinder host is stopped, so
// Keystone rejects Cinder's token validation.
var ntpFailure = caseStudy{
	opts: scenario.Options{Seed: 109, WithRCA: true, PollPeriod: time.Second},
	stage: func(h *scenario.Harness) *openstack.Instance {
		cinder := h.D.Fabric.NodeFor(trace.SvcCinder)
		faults.StopDependency(cinder, "ntp")
		h.Plan.Add(faults.Rule{
			API:         trace.RESTAPI(trace.SvcKeystone, "GET", "/v3/auth/tokens"),
			WhenDepDown: "ntp",
			DepOnCaller: true,
			StepIndex:   -1,
			Outcome: openstack.Outcome{Status: 401,
				ErrText: "The request you have made requires authentication (token expired: clock skew)"},
		})

		inst := h.D.Start(openstack.OpCinderList(), nil)
		h.Run(time.Hour)
		h.Finish()
		return inst
	},
}

// TestCaseStudyNTPFailure reproduces §7.2.4: the NTP agent on the Cinder
// host stops, Keystone rejects Cinder's token validation with 401, and
// RCA finds the stopped NTP daemon on the Cinder node.
func TestCaseStudyNTPFailure(t *testing.T) {
	h, _ := ntpFailure.run(t, false)

	rep := findCause(t, h.Reports(), "cinder-node", "software", "ntp")
	// The 401 comes from Keystone toward Cinder.
	if rep.Fault.Status != 401 {
		t.Fatalf("fault status = %d, want 401", rep.Fault.Status)
	}
	if rep.Fault.SrcNode != "keystone-node" || rep.Fault.DstNode != "cinder-node" {
		t.Fatalf("401 endpoints: %s -> %s", rep.Fault.SrcNode, rep.Fault.DstNode)
	}
	// Auth APIs are pruned from fingerprints, so operation identification
	// legitimately finds no candidates (the paper's diagnosis also rests
	// on RCA alone here) — yet RCA still localizes the cause.
	if len(rep.Candidates) != 0 {
		t.Logf("note: candidates = %v", rep.Candidates)
	}
}

// TestRCAPerformanceFaultNoErrors checks Analyze's performance-fault path
// (no error messages): it starts from the slow message's endpoints.
func TestRCAPerformanceFaultNoErrors(t *testing.T) {
	h := scenario.New(scenario.Options{Seed: 113, WithRCA: true, PollPeriod: time.Second})
	analyze := checkAgainstReference(t, h)
	glance := h.D.Fabric.NodeFor(trace.SvcGlance)
	faults.ExhaustDisk(glance, 0.4)
	h.Run(time.Minute) // collect some samples

	rep := &core.Report{
		Kind:  core.Performance,
		Fault: trace.Event{SrcNode: "glance-node", DstNode: "horizon-node", Time: h.D.Sim.Now()},
	}
	causes := analyze(rep)
	found := false
	for _, c := range causes {
		if c.Node == "glance-node" && strings.Contains(c.Detail, "disk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("causes = %v", causes)
	}
	h.Finish()
}

// TestRCACleanSystemReportsNothing verifies no false root causes on a
// healthy deployment.
func TestRCACleanSystemReportsNothing(t *testing.T) {
	h := scenario.New(scenario.Options{Seed: 127, WithRCA: true, PollPeriod: time.Second})
	analyze := checkAgainstReference(t, h)
	startBackground(h, 5)
	h.Run(10 * time.Minute)

	rep := &core.Report{
		Kind:       core.Operational,
		Fault:      trace.Event{SrcNode: "nova-node", DstNode: "horizon-node", Time: h.D.Sim.Now()},
		Errors:     []trace.Event{{SrcNode: "nova-node", DstNode: "horizon-node"}},
		Candidates: []string{"vm-create"},
	}
	causes := analyze(rep)
	if len(causes) != 0 {
		t.Fatalf("healthy system produced causes: %v", causes)
	}
	h.Finish()
}

// mysqlOutage: the MySQL server becomes unreachable and Nova's
// DB-backed calls fail with 500s.
var mysqlOutage = caseStudy{
	opts: scenario.Options{Seed: 131, WithRCA: true, PollPeriod: time.Second},
	stage: func(h *scenario.Harness) *openstack.Instance {
		// The watchers observe TCP reachability to MySQL from every node.
		mysql := h.D.Fabric.Node("mysql-node")
		mysql.Up = false
		for _, n := range h.D.Fabric.Nodes() {
			if n.Name != "mysql-node" {
				faults.StopDependency(n, "mysql-conn")
			}
		}
		h.Plan.Add(faults.Rule{
			Service:     trace.SvcNova,
			WhenDepDown: "mysql-conn",
			StepIndex:   -1,
			Outcome: openstack.Outcome{Status: 500,
				ErrText: "DBConnectionError: Lost connection to MySQL server"},
		})

		inst := h.D.Start(openstack.OpVMDelete(), nil)
		h.Run(time.Hour)
		h.Finish()
		return inst
	},
}

// TestCaseStudyMySQLOutage: the MySQL server becomes unreachable; every
// service's DB-backed API calls fail with 500s, watchers on each node
// report the lost mysql-conn dependency, and RCA names it.
func TestCaseStudyMySQLOutage(t *testing.T) {
	h, _ := mysqlOutage.run(t, false)

	rep := findCause(t, h.Reports(), "nova-node", "software", "mysql-conn")
	if rep.Fault.ErrorText == "" || !strings.Contains(rep.Fault.ErrorText, "MySQL") {
		t.Fatalf("error text = %q", rep.Fault.ErrorText)
	}
}

// brokerOutage: RabbitMQ is down while a volume is created.
var brokerOutage = caseStudy{
	opts: scenario.Options{Seed: 137, WithRCA: true, PollPeriod: time.Second},
	stage: func(h *scenario.Harness) *openstack.Instance {
		h.D.BrokerNode().Up = false
		inst := h.D.Start(openstack.OpVolumeCreate(), nil)
		h.Run(30 * time.Minute)
		h.Finish()
		return inst
	},
}

// TestCaseStudyBrokerOutage: with RabbitMQ down, RPC-bearing operations
// stall silently (paper limitation 2 — no wire-visible error), but the
// dependency watchers still expose the broker outage for operators.
func TestCaseStudyBrokerOutage(t *testing.T) {
	h, inst := brokerOutage.run(t, false)

	if inst.State != openstack.StateAborted {
		t.Fatalf("state = %v, want aborted (publish fails)", inst.State)
	}
	if len(h.Reports()) != 0 {
		t.Fatalf("silent outage produced %d reports", len(h.Reports()))
	}
	// The watcher view still shows every node's rabbitmq-conn dead
	// (broker node down makes reachability false).
	down := 0
	for _, ns := range agent.NodeStates(h.D.Fabric) {
		for _, s := range ns.Deps {
			if s.Node == "rabbitmq-node" && !s.Running {
				down++
			}
		}
	}
	if down == 0 {
		t.Fatal("watchers did not surface the broker outage")
	}
}

// TestCaseStudyBlindParity runs every case study decorated and blind:
// each report must carry the same OffendingAPI, Candidates, Beta and
// Precision both ways, with θ in [0, 1], and store a byte-identical
// evidence trace. A verdict that changes when only the answer key is
// removed was reading it.
func TestCaseStudyBlindParity(t *testing.T) {
	for name, cs := range map[string]caseStudy{
		"failed-image-upload": failedImageUpload,
		"neutron-latency":     neutronLatency,
		"linuxbridge-agent":   linuxBridgeAgent,
		"ntp-failure":         ntpFailure,
		"mysql-outage":        mysqlOutage,
		"broker-outage":       brokerOutage,
	} {
		t.Run(name, func(t *testing.T) {
			d, _ := cs.run(t, false)
			b, _ := cs.run(t, true)
			dr, br := d.Reports(), b.Reports()
			if len(dr) != len(br) {
				t.Fatalf("reports: decorated %d, blind %d", len(dr), len(br))
			}
			for i, dp := range dr {
				bp := br[i]
				if dp.OffendingAPI != bp.OffendingAPI || dp.Beta != bp.Beta || dp.Precision != bp.Precision ||
					!slices.Equal(dp.Candidates, bp.Candidates) {
					t.Errorf("report %d: verdict changes blind: offending %v β=%d θ=%v %v, blind %v β=%d θ=%v %v",
						i, dp.OffendingAPI, dp.Beta, dp.Precision, dp.Candidates, bp.OffendingAPI, bp.Beta, bp.Precision, bp.Candidates)
				}
				if dp.Precision < 0 || dp.Precision > 1 {
					t.Errorf("report %d: θ = %v outside [0, 1]", i, dp.Precision)
				}
				dj, _ := json.Marshal(d.Analyzer.ExplainStore().Get(dp.TraceID))
				bj, _ := json.Marshal(b.Analyzer.ExplainStore().Get(bp.TraceID))
				if !bytes.Equal(dj, bj) {
					t.Errorf("report %d: evidence differs blind:\ndecorated %s\nblind     %s", i, dj, bj)
				}
			}
		})
	}
}

// TestStoreBackedEngine drives RCA purely from agent StateUpdates — the
// split-architecture path where the analyzer service has no fabric
// access, only what the agents stream in.
func TestStoreBackedEngine(t *testing.T) {
	h := scenario.New(scenario.Options{Seed: 139})
	glance := h.D.Fabric.NodeFor(trace.SvcGlance)
	faults.ExhaustDisk(glance, 0.4)

	store := rca.NewStore()
	// Simulate the agent's periodic state reports.
	for i := 0; i < 30; i++ {
		h.Run(time.Second)
		store.Apply(agent.CollectState(h.D.Fabric, h.D.Sim.Now()))
	}

	engine := rca.NewEngine(h.Lib, store, rca.Config{})
	rep := &core.Report{
		Kind: core.Operational,
		Fault: trace.Event{SrcNode: "glance-node", DstNode: "horizon-node",
			Time: h.D.Sim.Now(), Status: 413},
		Errors:     []trace.Event{{SrcNode: "glance-node", DstNode: "horizon-node", Status: 413}},
		Candidates: []string{"image-upload"},
	}
	causes := engine.Analyze(rep)
	found := false
	for _, c := range causes {
		if c.Node == "glance-node" && strings.Contains(c.Detail, "disk") {
			found = true
		}
	}
	if !found {
		t.Fatalf("store-backed RCA missed the disk cause: %v", causes)
	}
	h.Finish()
}

func TestStoreNodeStatesSortedAndMerged(t *testing.T) {
	store := rca.NewStore()
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "zeta", Up: true}}})
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "alpha", Up: true}}})
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "zeta", Up: false}}}) // update
	ns := store.NodeStates()
	if len(ns) != 2 || ns[0].Name != "alpha" || ns[1].Name != "zeta" {
		t.Fatalf("states = %+v", ns)
	}
	if ns[1].Up {
		t.Fatal("later update did not overwrite")
	}
}

// TestStoreNodeStatesSnapshotIsImmutable: the slice a report walks is
// never edited by a later Apply.
func TestStoreNodeStatesSnapshotIsImmutable(t *testing.T) {
	store := rca.NewStore()
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "b", Up: true}, {Name: "d", Up: true}}})
	held := store.NodeStates()
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "a"}, {Name: "d", Up: false}, {Name: "c"}}})
	if len(held) != 2 || held[0].Name != "b" || held[1].Name != "d" || !held[1].Up {
		t.Fatalf("held snapshot changed: %+v", held)
	}
	var names string
	for _, n := range store.NodeStates() {
		names += n.Name
	}
	if names != "abcd" || store.NodeStates()[3].Up {
		t.Fatalf("states = %+v", store.NodeStates())
	}
}

// TestStoreDropsStaleSamples: samples reach one Store from any number of
// agents, and one older than its series' newest would break the time
// order windows are searched and identified by. It is dropped and
// counted; an equal-time sample is kept.
func TestStoreDropsStaleSamples(t *testing.T) {
	store, at := fabricate("neutron-node", 131072, "cpu", make([]float64, 60))
	stale := counter("rca.store.stale_samples")
	sample := func(sec int, v float64) agent.StateUpdate {
		return agent.StateUpdate{Samples: []agent.MetricSample{{Node: "neutron-node", Metric: "cpu",
			Time: at.Add(time.Duration(sec) * time.Second), Value: v}}}
	}
	store.Apply(sample(-30, 100)) // a second agent, 30 s behind
	store.Apply(sample(-1, 7))    // same instant as the newest: kept
	store.Apply(sample(0, 8))
	if got := counter("rca.store.stale_samples") - stale; got != 1 {
		t.Fatalf("stale_samples rose by %d, want 1", got)
	}
	w := store.MetricWindow("neutron-node", "cpu", at.Add(-time.Hour), at.Add(time.Hour))
	if len(w.Points) != 62 || w.Points[60].Value != 7 || w.Points[61].Value != 8 {
		t.Fatalf("window holds %d points ending %v", len(w.Points), w.Points[len(w.Points)-2:])
	}
	for i := 1; i < len(w.Points); i++ {
		if w.Points[i].Time.Before(w.Points[i-1].Time) {
			t.Fatalf("series out of order at %d", i)
		}
	}
}

// TestStoreTrimsToHorizon: a day of 1 s polls keeps at most the horizon's
// worth of points per series, and a report from before the horizon finds
// no samples — no resource cause — rather than a window of the wrong ones.
func TestStoreTrimsToHorizon(t *testing.T) {
	store := rca.NewStore()
	t0 := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "n", Service: trace.SvcNeutron, Up: true}}})
	const day, horizon = 86400, 600
	for i := 0; i < day; i++ {
		store.Apply(agent.StateUpdate{Samples: []agent.MetricSample{
			{Node: "n", Metric: "cpu", Time: t0.Add(time.Duration(i) * time.Second), Value: 96}}})
		if i%3600 == 0 || i == day-1 {
			w := store.MetricWindow("n", "cpu", t0, t0.Add(time.Duration(i)*time.Second))
			if len(w.Points) > horizon+1 {
				t.Fatalf("after %d s: %d points retained", i, len(w.Points))
			}
		}
	}
	engine := rca.NewEngine(scenario.CoreLibrary(), store, rca.Config{})
	report := func(sec int) []core.RootCause {
		return engine.Analyze(&core.Report{Fault: trace.Event{SrcNode: "n", Time: t0.Add(time.Duration(sec) * time.Second)}})
	}
	if causes := report(day - 1); len(causes) != 1 || !strings.Contains(causes[0].Detail, "sustained high CPU") {
		t.Fatalf("current report: %v", causes)
	}
	if causes := report(day - 2*horizon); len(causes) != 0 {
		t.Fatalf("report from before the horizon: %v", causes)
	}
	_, ev := engine.ExplainHook()(&core.Report{Fault: trace.Event{SrcNode: "n", Time: t0.Add((day - 1) * time.Second)}})
	if m := ev.Nodes[0].Metrics; len(m) != 1 || m[0].Samples != 121 {
		t.Fatalf("the judgment reads 120 s of the retained samples: %+v", m)
	}
}

// fabricate builds a Store with one node and a scripted metric series.
func fabricate(node string, memTotal float64, metric string, values []float64) (*rca.Store, time.Time) {
	store := rca.NewStore()
	t0 := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{{
		Name: node, Service: trace.SvcNeutron, Up: true, MemTotalMB: memTotal,
	}}})
	var samples []agent.MetricSample
	for i, v := range values {
		samples = append(samples, agent.MetricSample{
			Node: node, Metric: metric, Time: t0.Add(time.Duration(i) * time.Second), Value: v,
		})
	}
	store.Apply(agent.StateUpdate{Samples: samples})
	return store, t0.Add(time.Duration(len(values)) * time.Second)
}

func analyzeOne(store *rca.Store, at time.Time, node string) []core.RootCause {
	lib := scenario.CoreLibrary()
	engine := rca.NewEngine(lib, store, rca.Config{})
	rep := &core.Report{
		Kind:   core.Operational,
		Fault:  trace.Event{SrcNode: node, Time: at},
		Errors: []trace.Event{{SrcNode: node}},
	}
	return engine.Analyze(rep)
}

func TestRCAMemoryExhaustion(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 130000 // ~99% of 131072 MB
	}
	store, at := fabricate("neutron-node", 131072, "mem_used_mb", series)
	causes := analyzeOne(store, at, "neutron-node")
	found := false
	for _, c := range causes {
		if c.Kind == "resource" && strings.Contains(c.Detail, "memory exhaustion") {
			found = true
		}
	}
	if !found {
		t.Fatalf("memory exhaustion missed: %v", causes)
	}
}

func TestRCANetworkSurge(t *testing.T) {
	series := make([]float64, 0, 80)
	for i := 0; i < 40; i++ {
		series = append(series, 2) // quiet NIC
	}
	for i := 0; i < 40; i++ {
		series = append(series, 800) // saturation-level shift
	}
	store, at := fabricate("neutron-node", 131072, "net_mbps", series)
	causes := analyzeOne(store, at, "neutron-node")
	found := false
	for _, c := range causes {
		if c.Kind == "resource" && strings.Contains(c.Detail, "network throughput surge") {
			found = true
		}
	}
	if !found {
		t.Fatalf("network surge missed: %v", causes)
	}
}

func TestRCASustainedHighCPU(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 96
	}
	store, at := fabricate("neutron-node", 131072, "cpu", series)
	causes := analyzeOne(store, at, "neutron-node")
	found := false
	for _, c := range causes {
		if c.Kind == "resource" && strings.Contains(c.Detail, "sustained high CPU") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sustained CPU missed: %v", causes)
	}
}

func TestRCAHealthyMetricsNoCauses(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 5 + float64(i%3)
	}
	store, at := fabricate("neutron-node", 131072, "cpu", series)
	if causes := analyzeOne(store, at, "neutron-node"); len(causes) != 0 {
		t.Fatalf("healthy node produced causes: %v", causes)
	}
}

// TestExplainHookMatchesAnalyze is the RCA no-drift contract: the
// explaining hook must return exactly Analyze's causes, plus evidence
// recording every node examined with its metric windows and findings.
func TestExplainHookMatchesAnalyze(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 96 // pegged CPU
	}
	store, at := fabricate("neutron-node", 131072, "cpu", series)
	lib := scenario.CoreLibrary()
	engine := rca.NewEngine(lib, store, rca.Config{})
	rep := &core.Report{
		Kind:   core.Operational,
		Fault:  trace.Event{SrcNode: "neutron-node", Time: at},
		Errors: []trace.Event{{SrcNode: "neutron-node"}},
	}

	plain := engine.Analyze(rep)
	causes, ev := engine.ExplainHook()(rep)
	if len(plain) == 0 {
		t.Fatal("no causes from Analyze; scenario degenerated")
	}
	if len(causes) != len(plain) {
		t.Fatalf("explain causes = %v, Analyze = %v", causes, plain)
	}
	for i := range plain {
		if causes[i] != plain[i] {
			t.Fatalf("cause %d differs: %v vs %v", i, causes[i], plain[i])
		}
	}

	if ev == nil || len(ev.Nodes) == 0 {
		t.Fatal("no RCA evidence recorded")
	}
	n := ev.Nodes[0]
	if n.Node != "neutron-node" || n.Stage != "error" {
		t.Fatalf("first examined node = %+v, want neutron-node at error stage", n)
	}
	var cpu *tracestore.RCAMetric
	for i := range n.Metrics {
		if n.Metrics[i].Name == "cpu" {
			cpu = &n.Metrics[i]
		}
	}
	if cpu == nil {
		t.Fatalf("cpu window not recorded: %+v", n.Metrics)
	}
	if cpu.Samples != 60 || cpu.Last != 96 || cpu.Mean != 96 {
		t.Fatalf("cpu evidence = %+v", *cpu)
	}
	if len(n.Findings) == 0 || !strings.Contains(n.Findings[0], "CPU") {
		t.Fatalf("findings = %v", n.Findings)
	}
}

// TestExplainHookRecordsOperationStageWiden verifies the evidence shows
// the §5.4 widening: nothing anomalous on the error nodes, so the
// operation nodes are examined — and recorded — too.
func TestExplainHookRecordsOperationStageWiden(t *testing.T) {
	h := scenario.New(scenario.Options{Seed: 107, WithRCA: true, PollPeriod: time.Second})
	analyze := checkAgainstReference(t, h)
	for _, n := range h.D.ComputeNodes() {
		faults.StopDependency(n, "neutron-plugin-linuxbridge-agent")
	}
	h.Run(time.Minute)
	rep := &core.Report{
		Kind:       core.Operational,
		Fault:      trace.Event{SrcNode: "nova-node", DstNode: "horizon-node", Time: h.D.Sim.Now()},
		Errors:     []trace.Event{{SrcNode: "nova-node", DstNode: "horizon-node"}},
		Candidates: []string{"vm-create"},
	}
	analyze(rep)
	causes, ev := h.Engine.ExplainHook()(rep)
	found := false
	for _, c := range causes {
		if c.Kind == "software" && strings.Contains(c.Detail, "linuxbridge") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stopped agent not found: %v", causes)
	}
	stages := map[string]int{}
	for _, n := range ev.Nodes {
		stages[n.Stage]++
	}
	if stages["error"] == 0 || stages["operation"] == 0 {
		t.Fatalf("evidence should show both stages examined, got %v", stages)
	}
	// Error-stage nodes come first in the recorded walk.
	if ev.Nodes[0].Stage != "error" {
		t.Fatalf("first node stage = %s", ev.Nodes[0].Stage)
	}
	h.Finish()
}
