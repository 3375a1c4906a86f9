package openstack

import (
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/trace"
)

func TestPoolsMatchTable1(t *testing.T) {
	pools := Pools()
	for cat, spec := range poolSpec {
		p := pools[cat]
		if p == nil {
			t.Fatalf("no pool for %v", cat)
		}
		if len(p.REST) != spec.rest {
			t.Errorf("%v REST pool = %d, want %d", cat, len(p.REST), spec.rest)
		}
		if len(p.RPC) != spec.rpc {
			t.Errorf("%v RPC pool = %d, want %d", cat, len(p.RPC), spec.rpc)
		}
		seen := map[trace.API]bool{}
		for _, a := range append(append([]trace.API{}, p.REST...), p.RPC...) {
			if seen[a] {
				t.Errorf("%v pool duplicates %v", cat, a)
			}
			seen[a] = true
		}
		for _, a := range p.REST {
			if a.Kind != trace.REST {
				t.Errorf("%v REST pool contains %v", cat, a)
			}
		}
		for _, a := range p.RPC {
			if a.Kind != trace.RPC {
				t.Errorf("%v RPC pool contains %v", cat, a)
			}
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Compute.String() != "Compute" || Misc.String() != "Misc" {
		t.Fatal("category names wrong")
	}
	if len(Categories()) != int(NumCategories) {
		t.Fatal("Categories() incomplete")
	}
}

func TestOperationAccessors(t *testing.T) {
	op := OpVMCreate()
	apis := op.APIs()
	// §5.3.1 example: the VM create fingerprint has 7 REST and 3 RPC
	// invocations.
	var nREST, nRPC int
	for _, a := range apis {
		if a.Kind == trace.REST {
			nREST++
		} else {
			nRPC++
		}
	}
	if nRPC != 3 {
		t.Errorf("vm-create RPC count = %d, want 3", nRPC)
	}
	if op.FingerprintLen(true) != len(apis) {
		t.Errorf("FingerprintLen(true) = %d, want %d", op.FingerprintLen(true), len(apis))
	}
	if op.FingerprintLen(false) != nREST {
		t.Errorf("FingerprintLen(false) = %d, want %d", op.FingerprintLen(false), nREST)
	}
	// Noise steps (Keystone auth) are excluded from APIs().
	for _, a := range apis {
		if a.Service == trace.SvcKeystone {
			t.Errorf("noise API %v leaked into fingerprint", a)
		}
	}
	svcs := op.Services()
	want := map[trace.Service]bool{
		trace.SvcHorizon: true, trace.SvcNova: true, trace.SvcNovaCompute: true,
		trace.SvcGlance: true, trace.SvcNeutron: true, trace.SvcNeutronAgent: true,
		trace.SvcKeystone: true,
	}
	if len(svcs) != len(want) {
		t.Errorf("Services() = %v", svcs)
	}
	if op.String() == "" {
		t.Error("empty op string")
	}
}

func TestVMSnapshotSubsumesVolumeCreate(t *testing.T) {
	// §4: S1 (snapshot) subsumes S2 (volume create): S2's API sequence
	// appears contiguously inside S1's.
	snap, vol := OpVMSnapshot().APIs(), OpVolumeCreate().APIs()
	found := false
	for i := 0; i+len(vol) <= len(snap); i++ {
		match := true
		for j := range vol {
			if snap[i+j] != vol[j] {
				match = false
				break
			}
		}
		if match {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("volume-create not subsumed by vm-snapshot")
	}
}

// collectEvents runs instances of the given ops on a fresh deployment and
// returns the events an agent observed, in capture order.
func collectEvents(t *testing.T, cfg Config, ops []*Operation, horizon time.Duration) ([]trace.Event, *Deployment, []*Instance) {
	t.Helper()
	d := NewDeployment(cfg)
	var events []trace.Event
	mon := agent.NewMonitor("analyzer", func(ev trace.Event) {
		ev.Seq = uint64(len(events) + 1)
		events = append(events, ev)
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	var insts []*Instance
	for _, op := range ops {
		insts = append(insts, d.Start(op, nil))
	}
	d.Sim.RunUntil(d.Sim.Now().Add(horizon))
	d.StopNoise()
	d.Sim.Run()
	if mon.ParseErrors != 0 {
		t.Fatalf("agent hit %d parse errors", mon.ParseErrors)
	}
	return events, d, insts
}

func TestVMCreateEndToEnd(t *testing.T) {
	ops := []*Operation{OpVMCreate()}
	events, _, insts := collectEvents(t, Config{Seed: 7}, ops, time.Hour)

	if insts[0].State != StateSucceeded {
		t.Fatalf("vm-create state = %v", insts[0].State)
	}
	if len(events) == 0 {
		t.Fatal("no events captured")
	}

	// Reconstruct the REST request API sequence and compare to the
	// operation's steps (noise included, transient repeats allowed).
	var reqs []trace.API
	for _, ev := range events {
		if ev.Type == trace.RESTRequest {
			reqs = append(reqs, ev.API)
		}
	}
	// First two REST requests are the Keystone auth preamble.
	if reqs[0].Service != trace.SvcKeystone || reqs[1].Service != trace.SvcKeystone {
		t.Fatalf("auth preamble missing: %v %v", reqs[0], reqs[1])
	}
	// The POST /v2.1/servers call must be present and attributed to nova.
	found := false
	for _, a := range reqs {
		if a == trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers") {
			found = true
		}
	}
	if !found {
		t.Fatalf("POST /v2.1/servers not captured; reqs = %v", reqs)
	}

	// Every REST request has a matching response with a success status.
	var nReq, nResp int
	for _, ev := range events {
		switch ev.Type {
		case trace.RESTRequest:
			nReq++
		case trace.RESTResponse:
			nResp++
			if ev.Status >= 400 {
				t.Errorf("unexpected error status %d on %v", ev.Status, ev.API)
			}
			if ev.API.Zero() {
				t.Error("response not paired with request API")
			}
		}
	}
	if nReq != nResp {
		t.Fatalf("unpaired REST: %d req vs %d resp", nReq, nResp)
	}

	// RPC calls appear with correct APIs and get replies.
	var calls, replies int
	for _, ev := range events {
		switch ev.Type {
		case trace.RPCCall:
			calls++
			if ev.API.Service == trace.SvcUnknown {
				t.Errorf("RPC call with unknown service: %+v", ev)
			}
		case trace.RPCReply:
			replies++
			if ev.API.Zero() {
				t.Error("reply not paired to call API")
			}
		}
	}
	if calls != 3 || replies != 3 {
		t.Fatalf("RPC calls=%d replies=%d, want 3/3", calls, replies)
	}

	// Ground truth decorates every operation event.
	for _, ev := range events {
		if ev.Type == trace.RESTRequest && ev.OpID == 0 {
			t.Fatalf("missing ground truth on %+v", ev)
		}
	}
}

func TestNormalizedPathsRoundTrip(t *testing.T) {
	events, _, _ := collectEvents(t, Config{Seed: 11}, []*Operation{OpVMDelete()}, time.Hour)
	for _, ev := range events {
		if ev.Type == trace.RESTRequest && ev.API.Kind == trace.REST {
			for _, c := range ev.API.Path {
				if c >= '0' && c <= '9' && len(ev.API.Path) > 40 {
					t.Fatalf("path not normalized: %q", ev.API.Path)
				}
			}
		}
	}
}

type stepFaulter struct {
	api     trace.API
	status  int
	errText string
}

func (s stepFaulter) Outcome(inst *Instance, idx int, step Step, caller, node *cluster.Node) Outcome {
	if step.API == s.api {
		return Outcome{Status: s.status, ErrText: s.errText}
	}
	return Outcome{}
}

func TestInjectedRESTFaultFailsOperation(t *testing.T) {
	target := trace.RESTAPI(trace.SvcNeutron, "POST", "/v2.0/ports.json")
	d := NewDeployment(Config{Seed: 3})
	d.Injector = stepFaulter{api: target, status: 500, errText: "No valid host was found"}
	var events []trace.Event
	mon := agent.NewMonitor("analyzer", func(ev trace.Event) { events = append(events, ev) }, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	inst := d.Start(OpVMCreate(), nil)
	d.Sim.Run()
	if inst.State != StateFailed {
		t.Fatalf("state = %v, want failed", inst.State)
	}
	if inst.FailedAPI != target {
		t.Fatalf("FailedAPI = %v", inst.FailedAPI)
	}
	var sawError bool
	for _, ev := range events {
		if ev.Type == trace.RESTResponse && ev.Status == 500 {
			sawError = true
			if ev.ErrorText != "No valid host was found" {
				t.Fatalf("error text = %q", ev.ErrorText)
			}
			if ev.API != target {
				t.Fatalf("error API = %v", ev.API)
			}
		}
	}
	if !sawError {
		t.Fatal("injected error never observed on the wire")
	}
	// Steps after the failure never ran.
	for _, ev := range events {
		if ev.Type == trace.RESTRequest && ev.API == trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}") {
			t.Fatal("post-failure step executed")
		}
	}
}

func TestInjectedRPCFaultFailsOperation(t *testing.T) {
	target := trace.RPCAPI(trace.SvcCinder, "create_volume")
	d := NewDeployment(Config{Seed: 5})
	d.Injector = stepFaulter{api: target, status: 1, errText: "VolumeBackendAPIException: failed to create volume"}
	var events []trace.Event
	mon := agent.NewMonitor("analyzer", func(ev trace.Event) { events = append(events, ev) }, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	inst := d.Start(OpVolumeCreate(), nil)
	d.Sim.Run()
	if inst.State != StateFailed {
		t.Fatalf("state = %v, want failed", inst.State)
	}
	var sawFailure bool
	for _, ev := range events {
		if ev.Type == trace.RPCReply && ev.Status != 0 {
			sawFailure = true
			if ev.ErrorText == "" || ev.API != target {
				t.Fatalf("bad failure reply: %+v", ev)
			}
		}
	}
	if !sawFailure {
		t.Fatal("RPC failure never observed")
	}
}

func TestHeartbeatsAppearAsNoise(t *testing.T) {
	d := NewDeployment(Config{Seed: 9, HeartbeatPeriod: 10 * time.Second})
	var casts int
	mon := agent.NewMonitor("analyzer", func(ev trace.Event) {
		if ev.Type == trace.RPCCast && ev.OpID == 0 {
			casts++
		}
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	d.Sim.RunUntil(d.Sim.Now().Add(65 * time.Second))
	d.StopNoise()
	d.Sim.Run()
	// 3 compute nodes x 2 heartbeats + cinder = 7 per ~10s => ~42 in 65s.
	if casts < 20 {
		t.Fatalf("heartbeat casts = %d, want >= 20", casts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []trace.API {
		var apis []trace.API
		d := NewDeployment(Config{Seed: 31})
		mon := agent.NewMonitor("a", func(ev trace.Event) {
			if ev.Type.Request() {
				apis = append(apis, ev.API)
			}
		}, nil)
		d.Fabric.Tap(mon.HandlePacket)
		d.Start(OpVMSnapshot(), nil)
		d.Sim.Run()
		return apis
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTransientRetriesVaryAcrossInstances(t *testing.T) {
	d := NewDeployment(Config{Seed: 17, RetryProb: 0.5})
	counts := map[uint64]int{}
	mon := agent.NewMonitor("a", func(ev trace.Event) {
		if ev.Type == trace.RESTRequest {
			counts[ev.OpID]++
		}
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	const insts = 8
	for i := 0; i < insts; i++ {
		d.Start(OpVMCreate(), nil)
	}
	d.Sim.Run()
	// With 50% retry probability the instances should not all have the
	// same request count.
	allEqual := true
	for i := uint64(2); i <= insts; i++ {
		if counts[i] != counts[1] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("instances identical despite retries: %v", counts)
	}
}

func TestDownNodeAbortsSilently(t *testing.T) {
	d := NewDeployment(Config{Seed: 21})
	d.Fabric.NodeFor(trace.SvcGlance).Up = false
	var events int
	mon := agent.NewMonitor("a", func(trace.Event) { events++ }, nil)
	d.Fabric.Tap(mon.HandlePacket)
	inst := d.Start(OpImageUpload(), nil)
	d.Sim.Run()
	if inst.State != StateAborted {
		t.Fatalf("state = %v, want aborted", inst.State)
	}
}

func TestWatchDependencies(t *testing.T) {
	d := NewDeployment(Config{Seed: 1})
	d.ComputeNodes()[0].SetDependency("neutron-plugin-linuxbridge-agent", false)
	var found, running bool
	for _, ns := range agent.NodeStates(d.Fabric) {
		for _, s := range ns.Deps {
			if s.Node == "compute-1" && s.Name == "neutron-plugin-linuxbridge-agent" {
				found, running = true, s.Running
			}
		}
	}
	if !found || running {
		t.Fatalf("watcher missed crashed agent: found=%v running=%v", found, running)
	}
}

func TestInstanceStateStrings(t *testing.T) {
	for s, want := range map[InstanceState]string{
		StateRunning: "running", StateSucceeded: "succeeded",
		StateFailed: "failed", StateAborted: "aborted", InstanceState(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestNewCoreOperationsExecute(t *testing.T) {
	// Every core operation must run to successful completion on a clean
	// deployment.
	for _, op := range CoreOperations() {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			d := NewDeployment(Config{Seed: 33})
			inst := d.Start(op, nil)
			d.Sim.Run()
			if inst.State != StateSucceeded {
				t.Fatalf("%s state = %v", op.Name, inst.State)
			}
		})
	}
}

func TestCoreOperationNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range CoreOperations() {
		if seen[op.Name] {
			t.Fatalf("duplicate core op name %q", op.Name)
		}
		seen[op.Name] = true
		if len(op.APIs()) == 0 {
			t.Fatalf("%s has an empty fingerprint", op.Name)
		}
	}
}

func TestVolumeAttachFaultLocalized(t *testing.T) {
	// A cinder-side RPC failure during volume attach surfaces via the
	// storage relay API and is localized.
	target := trace.RPCAPI(trace.SvcCinder, "attach_volume")
	d := NewDeployment(Config{Seed: 35})
	d.Injector = stepFaulter{api: target, status: 1,
		errText: "VolumeAttachmentFailed: connection to target lost"}
	var errEvents int
	mon := agent.NewMonitor("a", func(ev trace.Event) {
		if ev.Faulty() {
			errEvents++
		}
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	inst := d.Start(OpVolumeAttach(), nil)
	d.Sim.Run()
	if inst.State != StateFailed {
		t.Fatalf("state = %v", inst.State)
	}
	// RPC failure + relayed REST error both visible.
	if errEvents < 2 {
		t.Fatalf("error events = %d, want >= 2", errEvents)
	}
}

func TestDBTrafficFilteredByAgents(t *testing.T) {
	d := NewDeployment(Config{Seed: 41})
	var events []trace.Event
	mon := agent.NewMonitor("a", func(ev trace.Event) { events = append(events, ev) }, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)
	d.Start(OpVMCreate(), nil)
	d.Sim.Run()

	if mon.Ignored == 0 {
		t.Fatal("no database packets were filtered (state-change steps must persist)")
	}
	if mon.ParseErrors != 0 {
		t.Fatalf("DB traffic leaked into the parser: %d errors", mon.ParseErrors)
	}
	for _, ev := range events {
		if ev.API.Service == trace.SvcMySQL {
			t.Fatalf("MySQL event emitted: %+v", ev)
		}
	}
}
