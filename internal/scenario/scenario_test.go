package scenario

import (
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/trace"
)

func TestCoreLibraryCoversCoreOperations(t *testing.T) {
	lib := CoreLibrary()
	ops := openstack.CoreOperations()
	if lib.Len() != len(ops) {
		t.Fatalf("library %d vs core ops %d", lib.Len(), len(ops))
	}
	for _, op := range ops {
		fp := lib.ByName(op.Name)
		if fp == nil {
			t.Fatalf("missing fingerprint for %s", op.Name)
		}
		if fp.Len() != len(op.APIs()) {
			t.Fatalf("%s fingerprint len %d vs %d", op.Name, fp.Len(), len(op.APIs()))
		}
	}
}

func TestHarnessEndToEnd(t *testing.T) {
	h := New(Options{Seed: 5, WithRCA: true, PollPeriod: time.Second})
	h.Plan.FailAPI(trace.RESTAPI(trace.SvcCinder, "POST", "/v2/volumes"), 500, "boom")
	h.D.Start(openstack.OpVolumeCreate(), nil)
	h.Run(20 * time.Minute)
	h.Finish()
	reps := h.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if !h.Hit(reps[0]) {
		t.Fatalf("candidates = %v", reps[0].Candidates)
	}
	if h.Monitor.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", h.Monitor.ParseErrors)
	}
}

func TestHarnessWithoutRCA(t *testing.T) {
	h := New(Options{Seed: 7})
	if h.Engine != nil {
		t.Fatal("engine built without WithRCA")
	}
	h.Plan.FailAPI(trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"), 413, "too large")
	h.D.Start(openstack.OpImageUpload(), nil)
	h.Run(20 * time.Minute)
	h.Finish()
	if len(h.Reports()) != 1 {
		t.Fatalf("reports = %d", len(h.Reports()))
	}
	if len(h.Reports()[0].RootCauses) != 0 {
		t.Fatal("root causes without an engine")
	}
}

func TestHarnessCustomAnalyzerConfig(t *testing.T) {
	h := New(Options{Seed: 9, Analyzer: core.Config{Alpha: 128}})
	if h.Analyzer.Config().Alpha != 128 {
		t.Fatalf("alpha = %d", h.Analyzer.Config().Alpha)
	}
}

// The paper's §8 limitations, demonstrated as tests so they stay honest.

// Limitation 2: faults that produce no wire-visible error — a stuck
// operation whose response never comes (Outcome.Drop) — are missed.
func TestLimitationStuckOperationMissed(t *testing.T) {
	h := New(Options{Seed: 11})
	h.Plan.Add(faults.Rule{
		API:       trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers"),
		StepIndex: -1,
		Outcome:   openstack.Outcome{Drop: true},
	})
	inst := h.D.Start(openstack.OpVMCreate(), nil)
	h.Run(30 * time.Minute)
	h.Finish()
	if inst.State != openstack.StateRunning {
		t.Fatalf("instance state = %v, want stuck (running forever)", inst.State)
	}
	if len(h.Reports()) != 0 {
		t.Fatalf("GRETEL reported a silent fault: %d reports (the paper says it cannot)", len(h.Reports()))
	}
}

// Limitation 4: faults in operations never fingerprinted yield no
// candidates (detection is predicated on test-suite completeness).
func TestLimitationUncoveredOperationNoMatch(t *testing.T) {
	h := New(Options{Seed: 13})
	// An operation outside the core library.
	rogue := &openstack.Operation{
		Name:     "rogue-op",
		Category: openstack.Misc,
		Steps: []openstack.Step{
			{API: trace.RESTAPI(trace.SvcSwift, "PUT", "/v1/{id}/{id}"), Caller: trace.SvcHorizon},
		},
	}
	h.Plan.FailAPI(trace.RESTAPI(trace.SvcSwift, "PUT", "/v1/{id}/{id}"), 500, "boom")
	h.D.Start(rogue, nil)
	h.Run(20 * time.Minute)
	h.Finish()
	reps := h.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d (the error itself is still seen)", len(reps))
	}
	if len(reps[0].Candidates) != 0 {
		t.Fatalf("uncovered operation matched: %v", reps[0].Candidates)
	}
}

// TestBranchedFingerprintExtension: an operation with an asynchronous
// optional step (§8 limitation 6). Classic LCS learning erases the async
// API, so faults in it find no candidates; variant-aware learning keeps
// both branches and localizes faults on either path.
func TestBranchedFingerprintExtension(t *testing.T) {
	asyncAPI := trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/qos/policies")
	branchy := &openstack.Operation{
		Name:     "branchy-op",
		Category: openstack.Network,
		Steps: []openstack.Step{
			{API: trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/networks"), Caller: trace.SvcHorizon},
			{API: asyncAPI, Caller: trace.SvcHorizon, Optional: 0.5},
			{API: trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/subnets.json"), Caller: trace.SvcHorizon},
			{API: trace.RESTAPI(trace.SvcNeutron, "GET", "/v2.0/networks/{id}"), Caller: trace.SvcHorizon},
		},
	}

	// Learn from isolated executions.
	var traces [][]trace.API
	for r := 0; r < 10; r++ {
		d := openstack.NewDeployment(openstack.Config{Seed: int64(1000 + r)})
		var apis []trace.API
		mon := agent.NewMonitor("learn", func(ev trace.Event) {
			if ev.Type.Request() {
				apis = append(apis, ev.API)
			}
		}, nil)
		d.Fabric.Tap(mon.HandlePacket)
		d.Start(branchy, nil)
		d.Sim.Run()
		traces = append(traces, apis)
	}
	nf := fingerprint.NewNoiseFilter(openstack.NoiseAPIs())

	// Classic learning removes the async API entirely.
	classic := fingerprint.Learn(traces, nf)
	for _, a := range classic {
		if a == asyncAPI {
			t.Fatal("LCS kept the async API (traces never diverged?)")
		}
	}

	// Variant learning keeps both branches.
	variants := fingerprint.LearnVariants(traces, nf, 2, 2)
	if len(variants) != 2 {
		t.Fatalf("variants = %d, want 2", len(variants))
	}

	// A library holding both variants localizes a fault in the async API.
	lib := fingerprint.NewLibrary()
	for _, v := range variants {
		lib.AddAPIs("branchy-op", "Network", v)
	}
	h := New(Options{Seed: 4242, Library: lib, Analyzer: core.Config{Alpha: 64}})
	h.Plan.FailAPI(asyncAPI, 500, "boom in the async branch")
	// Start instances until one takes the async branch and faults.
	for i := 0; i < 10; i++ {
		h.D.Start(branchy, nil)
	}
	h.Run(10 * time.Minute)
	h.Finish()

	reps := h.Reports()
	if len(reps) == 0 {
		t.Fatal("no instance took the async branch in 10 runs")
	}
	for _, rep := range reps {
		if !h.Hit(rep) {
			t.Fatalf("async-branch fault not localized: %v", rep.Candidates)
		}
		if len(rep.Candidates) != 1 {
			t.Fatalf("candidates = %v (variants must dedupe by name)", rep.Candidates)
		}
	}
}
