package tape

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/openstack"
	"gretel/internal/tempest"
)

// record runs a short simulated workload with two taps on the fabric:
// the tape, and a plain slice holding exactly what Fabric.Tap delivered.
func record(t *testing.T) (*Tape, []cluster.Packet, []agent.StateUpdate) {
	t.Helper()
	d := openstack.NewDeployment(openstack.Config{
		Seed: 3, HeartbeatPeriod: 10 * time.Second,
		ThinkMin: 50 * time.Millisecond, ThinkMax: 150 * time.Millisecond,
	})
	tp := New()
	var want []cluster.Packet
	var states []agent.StateUpdate
	d.Fabric.Tap(tp.Append)
	d.Fabric.Tap(func(p cluster.Packet) { want = append(want, p) })
	stopped := false
	d.Sim.Every(time.Second, func() bool { return stopped }, func() {
		u := agent.CollectState(d.Fabric, d.Sim.Now())
		tp.AppendState(u)
		states = append(states, u)
	})
	stop := tempest.SustainPool(d, tempest.NewCatalog(3), 20, rand.New(rand.NewSource(3)))
	d.Sim.RunUntil(d.Sim.Now().Add(3 * time.Second))
	stopped = true
	stop()
	d.StopNoise()
	d.Sim.Run()
	if len(want) < 1000 {
		t.Fatalf("simulation delivered only %d packets", len(want))
	}
	return tp, want, states
}

func TestRoundTripEqualsWhatTheTapDelivered(t *testing.T) {
	tp, want, states := record(t)
	if tp.Len() != len(want) {
		t.Fatalf("tape holds %d packets, tap delivered %d", tp.Len(), len(want))
	}
	bytes := 0
	for i, w := range want {
		if got := tp.Packet(i); !reflect.DeepEqual(got, w) {
			t.Fatalf("packet %d:\n got %+v\nwant %+v", i, got, w)
		}
		if tp.TimeNs(i) != w.Time.UnixNano() {
			t.Fatalf("packet %d: TimeNs %d, want %d", i, tp.TimeNs(i), w.Time.UnixNano())
		}
		bytes += len(w.Payload)
	}
	if tp.PayloadBytes() != bytes {
		t.Fatalf("PayloadBytes %d, want %d", tp.PayloadBytes(), bytes)
	}
	got := tp.States()
	if len(got) != len(states) || len(got) == 0 {
		t.Fatalf("tape holds %d state updates, recorded %d", len(got), len(states))
	}
	for i, s := range got {
		if !reflect.DeepEqual(s.Update, states[i]) {
			t.Fatalf("state update %d differs", i)
		}
		// In line: every packet before After was captured no later than
		// the update, every packet from After on no earlier.
		if s.After > 0 && want[s.After-1].Time.After(s.Update.Time) {
			t.Fatalf("state %d at %v sits after packet %d captured at %v", i, s.Update.Time, s.After-1, want[s.After-1].Time)
		}
		if s.After < len(want) && want[s.After].Time.Before(s.Update.Time) {
			t.Fatalf("state %d at %v sits before packet %d captured at %v", i, s.Update.Time, s.After, want[s.After].Time)
		}
	}
}

func TestALapAllocatesNothing(t *testing.T) {
	tp, _, _ := record(t)
	var sink int
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < tp.Len(); i++ {
			p := tp.Packet(i)
			sink += len(p.Payload) + len(p.SrcAddr) + int(p.ConnID)
		}
	})
	if allocs != 0 {
		t.Fatalf("a lap over the tape made %v allocations, want 0", allocs)
	}
	_ = sink
}
