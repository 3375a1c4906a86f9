package replay

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/core"
	"gretel/internal/openstack"
	"gretel/internal/scenario"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// failEvery fails every nth step of the deployment, REST and RPC alike.
type failEvery struct{ n, calls int }

func (f *failEvery) Outcome(*openstack.Instance, int, openstack.Step, *cluster.Node, *cluster.Node) openstack.Outcome {
	if f.calls++; f.calls%f.n == 0 {
		return openstack.Outcome{Status: 500, ErrText: "Internal Server Error: injected fault"}
	}
	return openstack.Outcome{}
}

// TestReportsIdenticalOnEveryPath: how an event's endpoints are carried
// — parsed by the tap, fixed-width in the frame and the WAL record — must
// not show in any report. One seeded deployment is tapped by a Monitor
// whose events go (a) straight into an analyzer, (b) through Sender →
// TCP → Receiver → IngestBatch, and (c) through AppendBatch → DriveWAL;
// the three analyzers' reports serialize to the same bytes, and those
// bytes spell an endpoint exactly as the packet did.
func TestReportsIdenticalOnEveryPath(t *testing.T) {
	newAnalyzer := func() *core.Analyzer { return core.New(scenario.CoreLibrary(), core.Config{Alpha: 256}) }

	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	snd, err := agent.DialConfig(agent.SenderConfig{Addr: recv.Addr(), Ring: 1 << 16, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	wired := newAnalyzer()
	var delivered atomic.Uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for batch := range recv.Batches() {
			wired.IngestBatch(batch.Events)
			delivered.Add(uint64(len(batch.Events)))
			recv.Recycle(batch)
		}
		wired.Close()
	}()

	d := openstack.NewDeployment(openstack.Config{
		Seed: 23, HeartbeatPeriod: 10 * time.Second, CorrelationIDs: true, RetryProb: 0.08,
	})
	d.Injector = &failEvery{n: 23}
	var (
		events  []trace.Event
		spelled = map[string]bool{} // every endpoint string a packet carried
	)
	mon := agent.NewMonitor("tap", func(ev trace.Event) {
		events = append(events, ev)
		snd.Send(ev)
	}, nil)
	d.Fabric.Tap(func(pkt cluster.Packet) {
		spelled[pkt.SrcAddr], spelled[pkt.DstAddr] = true, true
		mon.HandlePacket(pkt)
	})
	for round := 0; round < 4; round++ {
		for _, op := range openstack.CoreOperations() {
			d.Start(op, nil)
		}
	}
	d.Sim.RunUntil(d.Sim.Now().Add(10 * time.Minute))
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every event to cross the wire", func() bool { return delivered.Load() >= uint64(len(events)) })
	recv.Close()
	<-drained
	if st := snd.Stats(); st.Shed != 0 || st.Assigned != uint64(len(events)) {
		t.Fatalf("sender stats %+v for %d events", st, len(events))
	}

	direct := newAnalyzer()
	Drive(direct, events)
	want := reportsJSON(t, direct)
	if len(direct.Reports()) == 0 {
		t.Fatal("the stream produced no reports; the comparison would prove nothing")
	}
	for _, rep := range direct.Reports() {
		for _, ep := range []string{rep.Fault.SrcAddr.String(), rep.Fault.DstAddr.String()} {
			if !spelled[ep] || !bytes.Contains(want, []byte(`Addr":"`+ep+`"`)) {
				t.Fatalf("report endpoint %q is not a packet's spelling, or not in the JSON", ep)
			}
		}
	}
	if got := reportsJSON(t, wired); !bytes.Equal(got, want) {
		t.Fatalf("transport: %d reports differ from in-process ingestion's %d", len(wired.Reports()), len(direct.Reports()))
	}

	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += ingestChunk {
		if _, err := log.AppendBatch(events[lo:min(lo+ingestChunk, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := newAnalyzer()
	res, err := DriveWAL(recovered, dir, WALDrive{})
	if err != nil {
		t.Fatal(err)
	}
	recovered.Close()
	if res.Events != len(events) || res.Recovery.Quarantined != 0 {
		t.Fatalf("DriveWAL recovered %d of %d events, %d quarantined", res.Events, len(events), res.Recovery.Quarantined)
	}
	if got := reportsJSON(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("WAL replay: %d reports differ from in-process ingestion's %d", len(recovered.Reports()), len(direct.Reports()))
	}
}
