package cluster

import (
	"testing"
	"time"

	"gretel/internal/simclock"
	"gretel/internal/trace"
)

func newTestFabric() *Fabric {
	return NewFabric(simclock.New(), 42)
}

func TestAddAndLookupNodes(t *testing.T) {
	f := newTestFabric()
	f.AddNode("nova-node", "10.0.0.3", trace.SvcNova)
	f.AddNode("neutron-node", "10.0.0.4", trace.SvcNeutron)
	if f.Node("nova-node") == nil || f.Node("ghost") != nil {
		t.Fatal("Node lookup broken")
	}
	if got := f.NodeFor(trace.SvcNeutron); got == nil || got.Name != "neutron-node" {
		t.Fatalf("NodeFor(neutron) = %v", got)
	}
	if f.NodeFor(trace.SvcGlance) != nil {
		t.Fatal("NodeFor found a service with no node")
	}
	nodes := f.Nodes()
	if len(nodes) != 2 || nodes[0].Name != "neutron-node" || nodes[1].Name != "nova-node" {
		t.Fatalf("Nodes() order wrong: %v", nodes)
	}
}

// NodeFor's index answers as the scan it replaced — the first node by
// name hosting the service — after every registration: two nodes for
// one service added in either order, and a node replaced under its name
// by one of another service.
func TestNodeForMatchesScan(t *testing.T) {
	scan := func(f *Fabric, svc trace.Service) *Node {
		for _, n := range f.Nodes() {
			if n.Service == svc {
				return n
			}
		}
		return nil
	}
	f := newTestFabric()
	for _, add := range []struct {
		name string
		svc  trace.Service
	}{
		{"compute-2", trace.SvcNovaCompute},
		{"nova-node", trace.SvcNova},
		{"compute-1", trace.SvcNovaCompute},
		{"compute-3", trace.SvcNovaCompute},
		{"compute-1", trace.SvcCinder}, // replaces compute-1
		{"cinder-node", trace.SvcCinder},
		{"nova-node", trace.SvcNova}, // replaced by its own service
	} {
		f.AddNode(add.name, "10.0.0.1", add.svc)
		for _, svc := range append(trace.Services(), trace.SvcUnknown) {
			if got, want := f.NodeFor(svc), scan(f, svc); got != want {
				t.Fatalf("after adding %s: NodeFor(%v) = %v, scan %v", add.name, svc, got, want)
			}
		}
	}
	if got := f.NodeFor(trace.SvcNovaCompute); got == nil || got.Name != "compute-2" {
		t.Fatalf("NodeFor(nova-compute) = %v, want compute-2 once compute-1 left the service", got)
	}
}

func TestDefaultDependencies(t *testing.T) {
	f := newTestFabric()
	n := f.AddNode("n1", "10.0.0.1", trace.SvcNova)
	for _, dep := range []string{"ntp", "mysql-conn", "rabbitmq-conn"} {
		d := n.Dependency(dep)
		if d == nil || !d.Running {
			t.Errorf("default dependency %q missing or stopped", dep)
		}
	}
}

func TestSetDependency(t *testing.T) {
	f := newTestFabric()
	n := f.AddNode("c1", "10.0.0.9", trace.SvcNovaCompute)
	n.AddDependency("neutron-plugin-linuxbridge-agent")
	n.SetDependency("neutron-plugin-linuxbridge-agent", false)
	if n.Dependency("neutron-plugin-linuxbridge-agent").Running {
		t.Fatal("dependency still running after stop")
	}
	n.SetDependency("brand-new", false)
	if d := n.Dependency("brand-new"); d == nil || d.Running {
		t.Fatal("SetDependency did not create stopped dep")
	}
	deps := n.Dependencies()
	for i := 1; i < len(deps); i++ {
		if deps[i-1].Name > deps[i].Name {
			t.Fatal("Dependencies() not sorted")
		}
	}
}

func TestSampleReflectsLoadAndSurge(t *testing.T) {
	f := newTestFabric()
	n := f.AddNode("neutron-node", "10.0.0.4", trace.SvcNeutron)
	idle := n.Sample()
	n.ActiveOps = 100
	loaded := n.Sample()
	if loaded.CPUPercent <= idle.CPUPercent {
		t.Fatalf("CPU did not rise with load: %v -> %v", idle.CPUPercent, loaded.CPUPercent)
	}
	n.ActiveOps = 0
	n.CPUSurge = 60
	surged := n.Sample()
	if surged.CPUPercent < 50 {
		t.Fatalf("CPU surge not reflected: %v", surged.CPUPercent)
	}
	n.CPUSurge = 1000
	if capped := n.Sample(); capped.CPUPercent > 100 {
		t.Fatalf("CPU above 100%%: %v", capped.CPUPercent)
	}
}

func TestSendDeliversAfterLatencyAndTaps(t *testing.T) {
	f := newTestFabric()
	a := f.AddNode("a", "10.0.0.1", trace.SvcHorizon)
	b := f.AddNode("b", "10.0.0.2", trace.SvcNova)
	var tapped, delivered *Packet
	f.Tap(func(p Packet) { tapped = &p })
	payload := []byte("GET /v2.1/servers HTTP/1.1\r\n\r\n")
	err := f.Send("a", "b", Addr(a, 40000), Addr(b, 8774), 7, payload, func(p Packet) { delivered = &p })
	if err != nil {
		t.Fatal(err)
	}
	if delivered != nil {
		t.Fatal("delivered before latency elapsed")
	}
	f.Sim.Run()
	if delivered == nil || tapped == nil {
		t.Fatal("packet not delivered or not tapped")
	}
	if delivered.ConnID != 7 || string(delivered.Payload) != string(payload) {
		t.Fatalf("delivered packet mangled: %+v", delivered)
	}
	if tapped.SrcAddr != "10.0.0.1:40000" || tapped.DstAddr != "10.0.0.2:8774" {
		t.Fatalf("tap addresses wrong: %+v", tapped)
	}
	if !delivered.Time.After(simclock.Epoch) {
		t.Fatal("delivery time not after send time")
	}
	if f.Delivered != 1 || f.Bytes != uint64(len(payload)) {
		t.Fatalf("counters: %d packets %d bytes", f.Delivered, f.Bytes)
	}
}

func TestSendToDownNode(t *testing.T) {
	f := newTestFabric()
	f.AddNode("a", "10.0.0.1", trace.SvcHorizon)
	b := f.AddNode("b", "10.0.0.2", trace.SvcNova)
	b.Up = false
	err := f.Send("a", "b", "x", "y", 1, nil, nil)
	if _, ok := err.(ErrNodeDown); !ok {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestSendUnknownNode(t *testing.T) {
	f := newTestFabric()
	f.AddNode("a", "10.0.0.1", trace.SvcHorizon)
	if err := f.Send("a", "ghost", "x", "y", 1, nil, nil); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
	if err := f.Send("ghost", "a", "x", "y", 1, nil, nil); err == nil {
		t.Fatal("send from unknown node succeeded")
	}
}

func TestInjectLatencyDelaysDelivery(t *testing.T) {
	f := newTestFabric()
	f.AddNode("a", "10.0.0.1", trace.SvcHorizon)
	f.AddNode("glance-node", "10.0.0.6", trace.SvcGlance)

	var plainAt, slowAt time.Time
	f.Send("a", "glance-node", "x", "y", 1, nil, func(p Packet) { plainAt = p.Time })
	f.Sim.Run()

	f.InjectLatency("glance-node", 50*time.Millisecond)
	if f.InjectedLatency("glance-node") != 50*time.Millisecond {
		t.Fatal("InjectedLatency not recorded")
	}
	start := f.Sim.Now()
	f.Send("a", "glance-node", "x", "y", 2, nil, func(p Packet) { slowAt = p.Time })
	f.Sim.Run()
	if slowAt.Sub(start) < 50*time.Millisecond {
		t.Fatalf("injected latency not applied: took %v", slowAt.Sub(start))
	}
	_ = plainAt

	f.InjectLatency("glance-node", 0)
	if f.InjectedLatency("glance-node") != 0 {
		t.Fatal("latency injection not cleared")
	}
}

func TestConnAndPortAllocation(t *testing.T) {
	f := newTestFabric()
	c1, c2 := f.NewConnID(), f.NewConnID()
	if c1 == c2 {
		t.Fatal("conn ids collide")
	}
	p1, p2 := f.EphemeralPort(), f.EphemeralPort()
	if p1 == p2 || p1 < 33000 || p1 > 60999 {
		t.Fatalf("ports: %d %d", p1, p2)
	}
}

func TestEphemeralPortWraps(t *testing.T) {
	f := newTestFabric()
	f.nextPort = 60999
	if p := f.EphemeralPort(); p != 33000 {
		t.Fatalf("wrap port = %d, want 33000", p)
	}
}

func TestDeterministicSampling(t *testing.T) {
	f1 := NewFabric(simclock.New(), 1)
	f2 := NewFabric(simclock.New(), 1)
	n1 := f1.AddNode("same-name", "10.0.0.1", trace.SvcNova)
	n2 := f2.AddNode("same-name", "10.0.0.1", trace.SvcNova)
	for i := 0; i < 10; i++ {
		a, b := n1.Sample(), n2.Sample()
		if a != b {
			t.Fatalf("samples diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestServicePortsCoverServices(t *testing.T) {
	for _, svc := range trace.Services() {
		if ServicePorts[svc] == 0 {
			t.Errorf("no port for %v", svc)
		}
	}
}

func TestEphemeralPortSkipsLivePortsOnWrap(t *testing.T) {
	f := newTestFabric()
	// Pin a port near the end of the range as still-live, then force the
	// counter past it: the allocator must skip it rather than hand out a
	// port that still keys an active connection at the taps.
	f.nextPort = 60997
	live := f.EphemeralPort() // 60998
	if live != 60998 {
		t.Fatalf("setup port = %d, want 60998", live)
	}
	f.nextPort = 60997 // rewind the counter so the next scan re-visits 60998
	if p := f.EphemeralPort(); p == live {
		t.Fatalf("allocator reused live port %d", p)
	} else if p != 60999 {
		t.Fatalf("port = %d, want 60999 (skipping live 60998)", p)
	}
	if p := f.EphemeralPort(); p != 33000 {
		t.Fatalf("wrap port = %d, want 33000", p)
	}
	f.ReleasePort(live)
	f.nextPort = 60997
	if p := f.EphemeralPort(); p != live {
		t.Fatalf("released port not reallocated: got %d want %d", p, live)
	}
}

func TestEphemeralPortExhaustion(t *testing.T) {
	f := newTestFabric()
	span := ephemeralMax - ephemeralMin + 1
	seen := make(map[int]bool, span)
	for i := 0; i < span; i++ {
		p := f.EphemeralPort()
		if p < ephemeralMin || p > ephemeralMax {
			t.Fatalf("port %d outside [%d,%d]", p, ephemeralMin, ephemeralMax)
		}
		if seen[p] {
			t.Fatalf("port %d handed out twice after %d allocations", p, i+1)
		}
		seen[p] = true
	}
	if f.PortReuse != 0 {
		t.Fatalf("PortReuse = %d before exhaustion", f.PortReuse)
	}
	if got := f.PortsInUse(); got != span {
		t.Fatalf("PortsInUse = %d, want %d", got, span)
	}
	// The whole range is live: the allocator reuses (counted) instead of
	// wedging the simulation.
	p := f.EphemeralPort()
	if f.PortReuse != 1 {
		t.Fatalf("PortReuse = %d after exhausted alloc, want 1", f.PortReuse)
	}
	if p < ephemeralMin || p > ephemeralMax {
		t.Fatalf("fallback port %d outside range", p)
	}
	// Freeing any port makes the next allocation clean again.
	f.ReleasePort(40000)
	if q := f.EphemeralPort(); q != 40000 {
		t.Fatalf("post-release alloc = %d, want 40000", q)
	}
	if f.PortReuse != 1 {
		t.Fatalf("PortReuse moved to %d on a clean alloc", f.PortReuse)
	}
	f.ReleasePort(40000)
	f.ReleasePort(40000) // double release is a no-op
	if got := f.PortsInUse(); got != span-1 {
		t.Fatalf("PortsInUse = %d after release, want %d", got, span-1)
	}
}

func TestSendSelfLatencyChargedOnce(t *testing.T) {
	const inject = 50 * time.Millisecond
	cases := []struct {
		name     string
		src, dst string
		min, max time.Duration
	}{
		// BaseLatency is 300µs with ≤100µs jitter; 1ms of slack swamps it.
		{"self send, no injection", "a", "a", 0, time.Millisecond},
		{"self send charges injection once", "a", "a", inject, inject + time.Millisecond},
		{"cross send charges src injection", "a", "b", inject, inject + time.Millisecond},
		{"cross send charges both endpoints", "a", "glance", 2 * inject, 2*inject + time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFabric()
			f.AddNode("a", "10.0.0.1", trace.SvcHorizon)
			f.AddNode("b", "10.0.0.2", trace.SvcNova)
			f.AddNode("glance", "10.0.0.6", trace.SvcGlance)
			if tc.name != "self send, no injection" {
				f.InjectLatency("a", inject)
				f.InjectLatency("glance", inject)
			}
			start := f.Sim.Now()
			var at time.Time
			if err := f.Send(tc.src, tc.dst, "x", "y", 1, nil, func(p Packet) { at = p.Time }); err != nil {
				t.Fatal(err)
			}
			f.Sim.Run()
			took := at.Sub(start)
			if took < tc.min || took > tc.max {
				t.Fatalf("delivery took %v, want [%v, %v]", took, tc.min, tc.max)
			}
		})
	}
}
