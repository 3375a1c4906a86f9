package rca_test

// Differential tests: the production engine, which judges a node's metric
// windows once per window identity, against the reference engine
// (reference_test.go), which replays them on every report. Causes and
// RCAEvidence must be deep-equal on every report of every run.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/metrics"
	"gretel/internal/rca"
	"gretel/internal/scenario"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

var eqEpoch = time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)

// eqNodes is the inventory the scripted runs draw from: every service a
// core fingerprint touches, two compute hosts, and a node no operation
// maps to.
var eqNodes = []agent.NodeState{
	{Name: "cinder-node", Service: trace.SvcCinder},
	{Name: "compute-1", Service: trace.SvcNovaCompute},
	{Name: "compute-2", Service: trace.SvcNovaCompute},
	{Name: "glance-node", Service: trace.SvcGlance},
	{Name: "keystone-node", Service: trace.SvcKeystone},
	{Name: "mysql-node", Service: trace.SvcMySQL},
	{Name: "neutron-node", Service: trace.SvcNeutron},
	{Name: "nova-node", Service: trace.SvcNova},
}

// eqLevels are the levels a polled series moves between: the healthy one
// first, then the ones a threshold or a level shift should catch.
var eqLevels = map[string][]float64{
	metrics.MetricCPU:      {20, 60, 97},
	metrics.MetricMemUsed:  {1500, 4090},
	metrics.MetricDiskFree: {80, 2},
	metrics.MetricNet:      {5, 800},
	metrics.MetricDiskIOPS: {100},
}

// eqRun drives one Store with a script of polls, inventory changes and
// reports, and checks production against the reference on every report.
type eqRun struct {
	t       testing.TB
	rng     *rand.Rand
	store   *rca.Store
	prod    *rca.Engine
	explain func(*core.Report) ([]core.RootCause, *tracestore.RCAEvidence)
	ref     *refEngine
	names   []string // library operation names
	poll    time.Duration
	now     time.Time
	nodes   []agent.NodeState
	live    map[[2]string]bool    // node/metric series being polled
	level   map[[2]string]float64 // their current level
	reports int
	found   map[string]int // causes by kind, nodes by stage, "shift", "clean"
}

func newEqRun(t testing.TB, seed int64) *eqRun {
	rng := rand.New(rand.NewSource(seed))
	lib := scenario.CoreLibrary()
	// The poll period sets how many samples the engine's 120 s lookback
	// holds: about 3, 20 or 120.
	poll := []time.Duration{40 * time.Second, 6 * time.Second, time.Second}[rng.Intn(3)]
	r := &eqRun{t: t, rng: rng, store: rca.NewStore(), now: eqEpoch, poll: poll,
		live: map[[2]string]bool{}, level: map[[2]string]float64{}, found: map[string]int{}}
	r.prod = rca.NewEngine(lib, r.store, rca.Config{})
	r.explain = r.prod.ExplainHook()
	r.ref = newRefEngine(lib, r.store)
	for _, fp := range lib.All() {
		r.names = append(r.names, fp.Name)
	}
	for _, n := range eqNodes {
		n.Up, n.MemTotalMB = true, 4096
		n.Deps = []agent.DepStatus{{Node: n.Name, Name: "ntp", Running: true}, {Node: n.Name, Name: "mysql-conn", Running: true}}
		r.nodes = append(r.nodes, n)
	}
	// Half the inventory and most series exist from the start; the rest
	// appear mid-run (ops 4 and 5).
	r.store.Apply(agent.StateUpdate{Nodes: r.nodes[:len(r.nodes)/2]})
	for _, n := range r.nodes {
		for _, m := range metrics.MetricNames {
			if rng.Intn(4) > 0 {
				r.start(n.Name, m)
			}
		}
	}
	return r
}

func (r *eqRun) start(node, metric string) {
	k := [2]string{node, metric}
	r.live[k] = true
	r.level[k] = eqLevels[metric][0]
}

// step runs one script byte.
func (r *eqRun) step(op byte) {
	rng := r.rng
	n := &r.nodes[rng.Intn(len(r.nodes))]
	metric := metrics.MetricNames[rng.Intn(len(metrics.MetricNames))]
	switch op % 12 {
	case 0, 1, 2: // one poll of every live series; op 2 repeats the timestamp
		if op%12 != 2 {
			r.now = r.now.Add(r.poll)
		}
		var u agent.StateUpdate
		for _, nd := range r.nodes {
			for _, m := range metrics.MetricNames {
				if k := [2]string{nd.Name, m}; r.live[k] {
					u.Samples = append(u.Samples, agent.MetricSample{Node: nd.Name, Metric: m,
						Time: r.now, Value: r.level[k] + rng.Float64()*2})
				}
			}
		}
		r.store.Apply(u)
	case 3: // a late sample from a second agent: the store must drop it
		r.store.Apply(agent.StateUpdate{Samples: []agent.MetricSample{{Node: n.Name, Metric: metric,
			Time: r.now.Add(-time.Duration(1+rng.Intn(300)) * time.Second), Value: 1e6}}})
	case 4: // inventory change with the windows untouched; half are recoveries
		switch rng.Intn(6) {
		case 0:
			n.Up = false
		case 1:
			n.MemTotalMB = []float64{0, 1550}[rng.Intn(2)]
		case 2:
			n.Deps = append([]agent.DepStatus(nil), n.Deps...)
			n.Deps[rng.Intn(len(n.Deps))].Running = false
		default:
			n.Up, n.MemTotalMB = true, 4096
			n.Deps = []agent.DepStatus{{Node: n.Name, Name: "ntp", Running: true}, {Node: n.Name, Name: "mysql-conn", Running: true}}
		}
		r.store.Apply(agent.StateUpdate{Nodes: []agent.NodeState{*n}})
	case 5: // a series first appears mid-run
		r.start(n.Name, metric)
	case 6: // a level change the judgment should see: surge, exhaustion, or recovery
		k := [2]string{n.Name, metric}
		r.level[k] = eqLevels[metric][0]
		if ls := eqLevels[metric]; rng.Intn(2) == 0 {
			r.level[k] = ls[rng.Intn(len(ls))]
		}
	default: // a report; Fault.Time is not monotonic
		at := r.now
		switch rng.Intn(4) {
		case 0:
			at = at.Add(-time.Duration(rng.Intn(5000)) * time.Millisecond)
		case 1:
			at = at.Add(-time.Duration(rng.Intn(200)) * time.Second)
		case 2:
			at = at.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
		}
		r.report(at)
	}
}

func (r *eqRun) pickNode() string {
	switch i := r.rng.Intn(len(r.nodes) + 2); {
	case i < len(r.nodes):
		return r.nodes[i].Name
	case i == len(r.nodes):
		return ""
	}
	return "ghost-node"
}

func (r *eqRun) report(at time.Time) {
	rng := r.rng
	rep := &core.Report{Kind: core.Operational,
		Fault: trace.Event{SrcNode: r.pickNode(), DstNode: r.pickNode(), Time: at}}
	for i := rng.Intn(3); i > 0; i-- {
		rep.Errors = append(rep.Errors, trace.Event{SrcNode: r.pickNode(), DstNode: r.pickNode()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		rep.Candidates = append(rep.Candidates, r.names[rng.Intn(len(r.names))])
	}
	if rng.Intn(8) == 0 {
		rep.Candidates = append(rep.Candidates, "no-such-operation")
	}
	r.check(rep, rng.Intn(2) == 0)
}

// check compares one report's verdict — through Hook or ExplainHook, which
// share the engine's judgments — with the reference's.
func (r *eqRun) check(rep *core.Report, explain bool) {
	r.t.Helper()
	r.reports++
	wantCauses, wantEv := r.ref.explain(rep)
	for _, c := range wantCauses {
		r.found[c.Kind]++
	}
	if len(wantCauses) == 0 {
		r.found["clean"]++
	}
	for _, n := range wantEv.Nodes {
		r.found[n.Stage]++
		for _, m := range n.Metrics {
			if m.Shifted {
				r.found["shift"]++
			}
		}
	}
	var gotCauses []core.RootCause
	if explain {
		var gotEv *tracestore.RCAEvidence
		gotCauses, gotEv = r.explain(rep)
		if !reflect.DeepEqual(gotEv, wantEv) {
			r.t.Fatalf("report %d at %v: evidence differs\n got %+v\nwant %+v", r.reports, rep.Fault.Time, gotEv, wantEv)
		}
	} else {
		gotCauses = r.prod.Analyze(rep)
	}
	if !reflect.DeepEqual(gotCauses, wantCauses) {
		r.t.Fatalf("report %d at %v: causes differ\n got %v\nwant %v", r.reports, rep.Fault.Time, gotCauses, wantCauses)
	}
}

// TestRCAEquivalenceSeeded interleaves Store.Apply and reports on seeded
// random scripts long enough for a full-lookback window to slide at both
// ends, and requires a mix of verdicts so the comparison is not vacuous.
func TestRCAEquivalenceSeeded(t *testing.T) {
	found := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		r := newEqRun(t, seed)
		judged, reused := counter("rca.windows.judged"), counter("rca.windows.reused")
		for i := 0; i < 1500; i++ {
			r.step(byte(r.rng.Intn(256)))
		}
		if r.reports < 100 {
			t.Fatalf("seed %d: only %d reports", seed, r.reports)
		}
		if j, u := counter("rca.windows.judged")-judged, counter("rca.windows.reused")-reused; j == 0 || u == 0 {
			t.Fatalf("seed %d: judged %d, reused %d — the run must exercise both", seed, j, u)
		}
		t.Logf("seed %d: %d reports, %v", seed, r.reports, r.found)
		for k, n := range r.found {
			found[k] += n
		}
	}
	if found["resource"] == 0 || found["software"] == 0 || found["shift"] == 0 || found["clean"] == 0 || found["operation"] == 0 {
		t.Fatalf("verdicts too uniform to compare: %v", found)
	}
}

func counter(name string) uint64 { return telemetry.GetCounter(name).Value() }

// FuzzRCAEquivalence lets the fuzzer write the script; the seed fixes the
// values it plays with.
func FuzzRCAEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 11, 11, 6, 0, 0, 11, 4, 11, 3, 0, 11, 5, 0, 11})
	f.Add(int64(7), []byte{6, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 7, 8, 2, 9, 4, 10, 4, 11})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		r := newEqRun(t, seed)
		for _, op := range script {
			r.step(op)
		}
		r.report(r.now)
	})
}

// checkAgainstReference re-installs a harness's RCA hook so that every
// report of a case study is also judged by the reference over the same
// fabric, and any difference in causes or evidence fails the test. It
// returns the checking hook for reports the test builds by hand.
func checkAgainstReference(t *testing.T, h *scenario.Harness) func(*core.Report) []core.RootCause {
	ref := newRefEngine(h.Lib, rca.NewFabricSource(h.D.Fabric, h.D.Metrics))
	explain := h.Engine.ExplainHook()
	hook := func(rep *core.Report) []core.RootCause {
		got, gotEv := explain(rep)
		want, wantEv := ref.explain(rep)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEv, wantEv) {
			t.Errorf("report at %v differs from the reference\n got %v %+v\nwant %v %+v",
				rep.Fault.Time, got, gotEv, want, wantEv)
		}
		return got
	}
	h.Analyzer.SetRCA(hook)
	return hook
}

// TestWindowCountersCoverEveryExamination: every node examination is
// either judged or reused, and a burst of reports between two polls is
// judged once.
func TestWindowCountersCoverEveryExamination(t *testing.T) {
	r := newEqRun(t, 3)
	for i := 0; i < 200; i++ {
		r.step(0)
	}
	judged, reused := counter("rca.windows.judged"), counter("rca.windows.reused")
	examined := 0
	for i := 0; i < 50; i++ {
		rep := &core.Report{Fault: trace.Event{SrcNode: "nova-node", DstNode: "glance-node", Time: r.now},
			Candidates: []string{"vm-create"}}
		_, ev := r.explain(rep)
		examined += len(ev.Nodes)
		if i%10 == 9 {
			r.step(0)
		}
	}
	j, u := counter("rca.windows.judged")-judged, counter("rca.windows.reused")-reused
	if int(j+u) != examined || examined == 0 {
		t.Fatalf("judged %d + reused %d != %d nodes examined", j, u, examined)
	}
	if perPoll := examined / 50; int(j) != 5*perPoll {
		t.Fatalf("judged %d examinations over 5 polls of %d nodes, want %d", j, perPoll, 5*perPoll)
	}
}

// recordingSource hands the engine a live Store's answers and keeps the
// ones given during the current report, so the reference can be run on
// exactly the state production saw while Apply keeps running.
type recordingSource struct {
	*rca.Store
	nodes   []agent.NodeState
	windows map[[2]string]metrics.Window
}

func (s *recordingSource) NodeStates() []agent.NodeState {
	s.nodes = s.Store.NodeStates()
	return s.nodes
}

func (s *recordingSource) MetricWindow(node, metric string, from, to time.Time) metrics.Window {
	w := s.Store.MetricWindow(node, metric, from, to)
	s.windows[[2]string{node, metric}] = w
	return w
}

// replaySource serves a finished report's recorded answers.
type replaySource struct{ rec *recordingSource }

func (s replaySource) NodeStates() []agent.NodeState { return s.rec.nodes }

func (s replaySource) MetricWindow(node, metric string, _, _ time.Time) metrics.Window {
	return s.rec.windows[[2]string{node, metric}]
}

// TestConcurrentApplyAndAnalyze is the DetectWorkers > 0 + DriveTransport
// topology: one goroutine applies state updates while another analyzes.
// Each verdict must equal the reference's on the quiesced copy of what
// the engine read for that report. Run under -race.
func TestConcurrentApplyAndAnalyze(t *testing.T) {
	lib := scenario.CoreLibrary()
	store := rca.NewStore()
	rec := &recordingSource{Store: store}
	prod := rca.NewEngine(lib, rec, rca.Config{})
	ref := newRefEngine(lib, replaySource{rec})

	const polls = 400
	var wg sync.WaitGroup
	wg.Add(1)
	applied := make(chan int, polls) // never blocks the applier
	go func() {
		defer wg.Done()
		defer close(applied)
		rng := rand.New(rand.NewSource(5))
		nodes := append([]agent.NodeState(nil), eqNodes...)
		for i := 0; i < polls; i++ {
			u := agent.StateUpdate{Nodes: make([]agent.NodeState, len(nodes))}
			for k := range nodes {
				nodes[k].Up, nodes[k].MemTotalMB = rng.Intn(20) > 0, 4096
				u.Nodes[k] = nodes[k]
				level := 20.0
				if i > 150 && k%2 == 0 {
					level = 97
				}
				for _, m := range metrics.MetricNames {
					u.Samples = append(u.Samples, agent.MetricSample{Node: nodes[k].Name, Metric: m,
						Time: eqEpoch.Add(time.Duration(i) * time.Second), Value: level + rng.Float64()})
				}
			}
			store.Apply(u)
			applied <- i
		}
	}()
	rng := rand.New(rand.NewSource(6))
	explain := prod.ExplainHook()
	reports := 0
	for i := range applied {
		for k := 0; k < 3; k++ {
			rep := &core.Report{Candidates: []string{"vm-create", "image-upload"}, Fault: trace.Event{
				SrcNode: eqNodes[rng.Intn(len(eqNodes))].Name, Time: eqEpoch.Add(time.Duration(i) * time.Second)}}
			rec.windows = map[[2]string]metrics.Window{}
			got, gotEv := explain(rep)
			want, wantEv := ref.explain(rep)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("poll %d: verdict differs from the reference on the same state\n got %v %+v\nwant %v %+v",
					i, got, gotEv, want, wantEv)
			}
			reports++
		}
	}
	wg.Wait()
	if reports != 3*polls {
		t.Fatalf("%d reports", reports)
	}
}
