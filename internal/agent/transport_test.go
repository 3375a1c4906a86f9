package agent

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/chaos"
	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

func sampleEvent(seq uint64) trace.Event {
	return trace.Event{
		Seq:     seq,
		Time:    time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC),
		Type:    trace.RESTResponse,
		API:     trace.RESTAPI(trace.SvcGlance, "PUT", "/v2/images/{id}/file"),
		SrcNode: "glance-node", DstNode: "horizon-node",
		ConnID: 42, Status: 413, ErrorText: "Request Entity Too Large",
		WireBytes: 211, OpID: 7, OpName: "image-upload",
	}
}

// binFrame builds the event frame every sender writes: binary body,
// kind 'B'.
func binFrame(seq uint64, ev trace.Event) []byte {
	return appendEventFrame(nil, &ev, seq)
}

// readFrame reads one frame the way the receiver does.
func readFrame(br *bufio.Reader, buf []byte) (kind byte, seq uint64, body []byte, skipped int, err error) {
	kind, seq, body, sk, err := seglog.ReadRecord(br, frameKinds, buf, seglog.Socket)
	return kind, seq, body, int(sk.Bytes), err
}

// frameEventJSON is the kind senders once gave an encoding/json event
// body. No reader knows it any more; jsonFrame builds such a frame,
// CRC-valid, for the tests that feed one to a reader.
const frameEventJSON byte = 'E'

func jsonFrame(seq uint64, ev trace.Event) []byte {
	body, _ := json.Marshal(&ev)
	return seglog.AppendRecord(nil, frameEventJSON, seq, body)
}

// decodeEventBody decodes an event frame body.
func decodeEventBody(t *testing.T, kind byte, body []byte) trace.Event {
	t.Helper()
	var (
		dec trace.Decoder
		ev  trace.Event
	)
	if err := dec.Decode(kind, body, &ev); err != nil {
		t.Fatalf("decoding %q event body: %v", kind, err)
	}
	return ev
}

// readEventFrame reads the first frame of b and decodes it as an event,
// the receiver's two steps: seglog's reader, then trace's decoder.
func readEventFrame(b []byte) (trace.Event, error) {
	var (
		dec trace.Decoder
		ev  trace.Event
	)
	kind, _, body, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err == nil {
		err = dec.Decode(kind, body, &ev)
	}
	return ev, err
}

// stateFrame builds an unsequenced state-update frame around the JSON
// body SendState spools.
func stateFrame(t *testing.T, u StateUpdate) []byte {
	t.Helper()
	body, err := json.Marshal(&u)
	if err != nil {
		t.Fatal(err)
	}
	return seglog.AppendRecord(nil, frameState, 0, body)
}

// takeEvents reads at least n events from the receiver the way the
// analyzer does, a batch at a time, recycling each batch once copied out.
// It fails the test if the stream closes or the timeout passes first.
func takeEvents(t *testing.T, r *Receiver, n int, timeout time.Duration) []trace.Event {
	t.Helper()
	var got []trace.Event
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case batch, ok := <-r.Batches():
			if !ok {
				t.Fatalf("receiver closed after %d of %d events", len(got), n)
			}
			wantRecord(t, batch)
			got = append(got, batch.Events...)
			r.Recycle(batch)
		case <-deadline:
			t.Fatalf("timeout after %d of %d events", len(got), n)
		}
	}
	return got
}

// wantRecord checks a hand-off's record, when it carries one: its
// events' wire bodies, laid out as one batch record. The test events are
// canonically encoded, so each body is AppendEvent's.
func wantRecord(t *testing.T, b *Batch) {
	t.Helper()
	if len(b.Record) == 0 {
		return
	}
	want := seglog.StartBatch(nil)
	for i := range b.Events {
		want = seglog.AppendEntry(want, trace.AppendEvent(nil, &b.Events[i]))
	}
	if !bytes.Equal(b.Record, want) {
		t.Fatalf("record of %d events is %d bytes, not their bodies' %d", len(b.Events), len(b.Record), len(want))
	}
}

// fastSender returns a SenderConfig with test-tight timers.
func fastSender(addr, name string) SenderConfig {
	return SenderConfig{
		Addr: addr, Agent: name, WriteTimeout: 2 * time.Second,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Heartbeat: 10 * time.Millisecond, DrainTimeout: 5 * time.Second,
	}
}

func TestWriteReadEventRoundTrip(t *testing.T) {
	ev := sampleEvent(3)
	got, err := readEventFrame(binFrame(0, ev))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.API != ev.API || got.Status != 413 ||
		got.ErrorText != ev.ErrorText || got.OpName != "image-upload" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Time.Equal(ev.Time) {
		t.Fatalf("time mismatch: %v", got.Time)
	}
}

func TestReadEventRejectsGarbageStream(t *testing.T) {
	if _, err := readEventFrame([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestReadFrameSkipsOversizedLength(t *testing.T) {
	// A header whose length field exceeds MaxFrame must be rejected as
	// corrupt (scan past it), never allocated.
	huge := binFrame(1, sampleEvent(1))
	huge[11], huge[12], huge[13], huge[14] = 0xff, 0xff, 0xff, 0xff
	good := binFrame(2, sampleEvent(1))
	br := bufio.NewReader(bytes.NewReader(append(huge, good...)))
	kind, seq, _, skipped, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameEvent || seq != 2 {
		t.Fatalf("got kind=%q seq=%d, want the good frame after the corrupt one", kind, seq)
	}
	if skipped == 0 {
		t.Fatal("corrupt prefix not reported as skipped")
	}
}

func TestReadEventShortBody(t *testing.T) {
	if _, err := readEventFrame([]byte{0, 0, 0, 10, 'x'}); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestReadFrameResyncAfterCorruptFrame(t *testing.T) {
	// Flip a body byte: CRC fails, frame is skipped, and the next valid
	// frame is returned — corruption must not surface as an error.
	bad := binFrame(1, sampleEvent(1))
	bad[frameHdrLen] ^= 0xff
	good := binFrame(2, sampleEvent(1))
	br := bufio.NewReader(bytes.NewReader(append(bad, good...)))
	kind, seq, gotBody, skipped, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameEvent || seq != 2 {
		t.Fatalf("kind=%q seq=%d, want good frame", kind, seq)
	}
	if skipped != len(bad) {
		t.Fatalf("skipped=%d, want %d (the whole corrupt frame)", skipped, len(bad))
	}
	if got := decodeEventBody(t, kind, gotBody); got.Status != 413 {
		t.Fatalf("body mangled: %+v", got)
	}
}

func TestSenderReceiverEndToEnd(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := DialConfig(SenderConfig{Addr: recv.Addr()})
	if err != nil {
		t.Fatal(err)
	}

	const n = 500
	go func() {
		for i := uint64(1); i <= n; i++ {
			sender.Send(sampleEvent(i))
		}
		sender.Close()
	}()

	got := takeEvents(t, recv, n, 5*time.Second)
	// Per-connection ordering must be preserved (§5.2).
	for i := range got {
		if got[i].Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d (order broken)", i, got[i].Seq)
		}
	}
	recv.Close()
}

func TestMultipleSenders(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	const senders, per = 4, 100
	for s := 0; s < senders; s++ {
		s := s
		go func() {
			snd, err := DialConfig(fastSender(recv.Addr(), "node-"+string(rune('a'+s))))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				ev := sampleEvent(uint64(s*per + i))
				ev.SrcNode = "node-" + string(rune('a'+s))
				snd.Send(ev)
			}
			snd.Close()
		}()
	}
	takeEvents(t, recv, senders*per, 5*time.Second)
	recv.Close()
}

func TestStateFrameRoundTrip(t *testing.T) {
	u := StateUpdate{
		Time: time.Date(2016, 12, 12, 0, 0, 5, 0, time.UTC),
		Nodes: []NodeState{{
			Name: "glance-node", Service: trace.SvcGlance, Up: true, MemTotalMB: 131072,
			Deps: []DepStatus{{Node: "glance-node", Name: "ntp", Running: true}},
		}},
		Samples: []MetricSample{{Node: "glance-node", Metric: "disk_free_gb",
			Time: time.Date(2016, 12, 12, 0, 0, 5, 0, time.UTC), Value: 0.6}},
	}
	frame := stateFrame(t, u)
	// The event reader must reject a state frame.
	if _, err := readEventFrame(frame); err == nil {
		t.Fatal("a state frame decoded as an event")
	}
	kind, seq, body, skipped, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil || kind != frameState || seq != 0 || skipped != 0 {
		t.Fatalf("kind=%q seq=%d skipped=%d err=%v", kind, seq, skipped, err)
	}
	if len(body) == 0 {
		t.Fatal("empty state body")
	}
}

func TestMixedFrameStreamOverTCP(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := DialConfig(SenderConfig{Addr: recv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 50; i++ {
			sender.Send(sampleEvent(uint64(i + 1)))
			if i%10 == 0 {
				sender.SendState(StateUpdate{Nodes: []NodeState{{Name: "n1", Up: true}}})
			}
		}
		sender.Close()
	}()
	events, states := 0, 0
	timeout := time.After(5 * time.Second)
	for events < 50 || states < 5 {
		select {
		case batch, ok := <-recv.Batches():
			if ok {
				events += len(batch.Events)
				recv.Recycle(batch)
			}
		case _, ok := <-recv.States():
			if ok {
				states++
			}
		case <-timeout:
			t.Fatalf("timeout: %d events, %d states", events, states)
		}
	}
	recv.Close()
}

func TestCollectStateAndStoreRoundTrip(t *testing.T) {
	// CollectState over a fabric, applied to an rca.Store via the wire
	// format, must reproduce dependency status (tested here only up to
	// the agent package boundary: a state frame in, a StateUpdate out of
	// the receiver).
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stateFrame(t, StateUpdate{Nodes: []NodeState{{Name: "c1", Up: false}}})); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv.States():
		if len(got.Nodes) != 1 || got.Nodes[0].Name != "c1" || got.Nodes[0].Up {
			t.Fatalf("round trip: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("state frame never arrived")
	}
}

// waitCounterAbove polls a telemetry counter until it exceeds floor or
// the deadline passes (receiver goroutines count asynchronously).
func waitCounterAbove(t *testing.T, c *telemetry.Counter, floor uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() <= floor {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d (want > %d)", c.Value(), floor)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReceiverResyncsOnCorruptBytes: garbage on the wire must be
// skipped via resync — the connection survives and the next valid
// frame is still delivered.
func TestReceiverResyncsOnCorruptBytes(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	resyncs := telemetry.GetCounter("transport.resyncs")
	before := resyncs.Value()

	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{'X', 0xff, 0x01, 0xab, 0x00, 0x7f})
	if _, err := conn.Write(binFrame(0, sampleEvent(99))); err != nil {
		t.Fatal(err)
	}
	if got := takeEvents(t, recv, 1, 5*time.Second)[0]; got.Seq != 99 {
		t.Fatalf("wrong event after resync: %+v", got)
	}
	waitCounterAbove(t, resyncs, before)
}

// TestReceiverSkipsUndecodableFrame: a well-framed but undecodable
// event body must be counted and skipped — the connection survives.
func TestReceiverSkipsUndecodableFrame(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	decode := telemetry.GetCounter("transport.decode_errors")
	before := decode.Value()

	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	good := binFrame(0, sampleEvent(1))[frameHdrLen:]
	conn.Write(seglog.AppendRecord(nil, frameEvent, 0, good[:len(good)-1]))            // truncated
	conn.Write(seglog.AppendRecord(nil, frameEvent, 0, append([]byte{0xff}, good...))) // unknown body version
	if _, err := conn.Write(binFrame(0, sampleEvent(7))); err != nil {
		t.Fatal(err)
	}
	if got := takeEvents(t, recv, 1, 5*time.Second)[0]; got.Seq != 7 {
		t.Fatalf("wrong event after decode error: %+v", got)
	}
	waitCounterAbove(t, decode, before+1)
}

// TestReceiverRecordsGapAndDedups drives sequence tracking directly: a
// jump in sequence numbers yields a gap record, and a replayed frame is
// dropped as a duplicate.
func TestReceiverRecordsGapAndDedups(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.Write(helloFrame("gap-agent", 1, 0))
	mk := func(seq uint64) []byte { return binFrame(seq, sampleEvent(seq)) }
	conn.Write(mk(1))
	conn.Write(mk(5)) // gap: 2,3,4 missing
	conn.Write(mk(5)) // duplicate

	takeEvents(t, recv, 2, 5*time.Second)
	select {
	case h := <-recv.Health():
		if h.Kind != HealthGap || h.Agent != "gap-agent" || h.Missing != 3 {
			t.Fatalf("health = %+v, want gap of 3 for gap-agent", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no gap record")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := recv.AgentStats()["gap-agent"]
		if st.LastSeq == 5 && st.Missing == 3 && st.Dups == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent stats = %+v, want lastSeq=5 missing=3 dups=1", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReceiverLivenessDownUp: an agent whose frames stop is declared
// down after DownAfter, and flips back up when it returns.
func TestReceiverLivenessDownUp(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0", DownAfter: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	snd, err := DialConfig(fastSender(recv.Addr(), "hb-agent"))
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(sampleEvent(1))
	takeEvents(t, recv, 1, 5*time.Second)
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}

	waitHealth := func(want HealthKind) {
		t.Helper()
		timeout := time.After(5 * time.Second)
		for {
			select {
			case h := <-recv.Health():
				if h.Kind == want && h.Agent == "hb-agent" {
					return
				}
			case <-timeout:
				t.Fatalf("no %v record for hb-agent", want)
			}
		}
	}
	waitHealth(HealthDown)
	if st := recv.AgentStats()["hb-agent"]; !st.Down {
		t.Fatalf("agent not marked down: %+v", st)
	}

	// The agent comes back: fresh sender, same identity.
	snd2, err := DialConfig(fastSender(recv.Addr(), "hb-agent"))
	if err != nil {
		t.Fatal(err)
	}
	defer snd2.Close()
	waitHealth(HealthUp)
}

// TestSenderAutoReconnectReplays kills the live connection server-side;
// the sender must redial on its own and replay the ring so every frame
// is eventually seen (the receiver side dedups).
func TestSenderAutoReconnectReplays(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()

	reconnects := telemetry.GetCounter("transport.reconnects")
	recBefore := reconnects.Value()
	replayed := telemetry.GetCounter("transport.frames_replayed")
	repBefore := replayed.Value()

	cfg := fastSender(ln.Addr().String(), "replayer")
	cfg.Heartbeat = -1 // quiet stream: only payload frames
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	first := <-conns
	for i := uint64(1); i <= 10; i++ {
		s.Send(sampleEvent(i))
	}
	first.Close() // sender's writes now fail → background redial
	for i := uint64(11); i <= 20; i++ {
		s.Send(sampleEvent(i))
	}

	// The first write after the peer closed can still succeed (the RST
	// comes back later); with heartbeats off only another write surfaces
	// the dead connection, so keep the stream trickling until the redial.
	var second net.Conn
	nudge := time.NewTicker(10 * time.Millisecond)
	defer nudge.Stop()
	deadline := time.After(5 * time.Second)
	for next := uint64(21); second == nil; {
		select {
		case second = <-conns:
		case <-nudge.C:
			s.Send(sampleEvent(next))
			next++
		case <-deadline:
			t.Fatal("sender never redialed")
		}
	}
	br := bufio.NewReader(second)
	seen := make(map[uint64]bool)
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(seen) < 20 {
		kind, _, body, _, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("after %d distinct events: %v", len(seen), err)
		}
		if kind != frameEvent {
			continue
		}
		if seq := decodeEventBody(t, kind, body).Seq; seq <= 20 {
			seen[seq] = true
		}
	}
	if got := reconnects.Value(); got <= recBefore {
		t.Fatalf("reconnects = %d, want > %d", got, recBefore)
	}
	// The redial replayed the ring suffix the dead conn never acked:
	// at least the 10 pre-disconnect events went over the wire twice,
	// and every replay is counted.
	if got := replayed.Value(); got < repBefore+10 {
		t.Fatalf("transport.frames_replayed = %d, want >= %d (10 ring frames replayed on reconnect)",
			got, repBefore+10)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	second.Close()
}

// TestSenderLazyDialBeforeReceiver: the sender must be usable before
// the analyzer is listening — frames spool and flow once it appears.
func TestSenderLazyDialBeforeReceiver(t *testing.T) {
	// Reserve an address, then free it for the late receiver.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	s, err := DialConfig(fastSender(addr, "early-bird"))
	if err != nil {
		t.Fatalf("lazy dial must not fail: %v", err)
	}
	for i := uint64(1); i <= 5; i++ {
		s.Send(sampleEvent(i))
	}
	time.Sleep(20 * time.Millisecond) // let a few dial attempts fail

	recv, err := ListenConfig(ReceiverConfig{Addr: addr})
	if err != nil {
		t.Skipf("reserved address %s re-taken: %v", addr, err)
	}
	defer recv.Close()
	if err := s.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]bool)
	for _, ev := range takeEvents(t, recv, 5, 5*time.Second) {
		got[ev.Seq] = true
	}
	if len(got) != 5 {
		t.Fatalf("%d distinct of 5 spooled events delivered", len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSenderShedsOldestWhenRingFull: with no analyzer reachable, ring
// overflow sheds oldest-first and is counted; Close reports the
// incomplete drain.
func TestSenderShedsOldestWhenRingFull(t *testing.T) {
	// An address nothing listens on.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	shedC := telemetry.GetCounter("transport.frames_shed")
	before := shedC.Value()

	cfg := fastSender(addr, "shedder")
	cfg.Ring = 8
	cfg.DrainTimeout = 50 * time.Millisecond
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		s.Send(sampleEvent(i))
	}
	st := s.Stats()
	if st.Shed != 12 {
		t.Fatalf("shed = %d, want 12 (20 sent into a ring of 8)", st.Shed)
	}
	if got := shedC.Value(); got != before+12 {
		t.Fatalf("transport.frames_shed advanced by %d, want 12", got-before)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close must report the failed drain when frames never flushed")
	}
}

// TestReceiverCloseMidBurst is the shutdown-race regression test: a
// serve goroutine blocked handing events to a consumer that stopped
// reading must not deadlock Close — whichever of the two streams the
// consumer had been reading — and that stream closes after Close.
func TestReceiverCloseMidBurst(t *testing.T) {
	for name, stream := range map[string]struct {
		backlog func(*Receiver) (held, room int)
		open    func(*Receiver) bool // takes one hand-off; false once closed
	}{
		"Batches": {
			backlog: func(r *Receiver) (int, int) { return len(r.Batches()), cap(r.Batches()) },
			open:    func(r *Receiver) bool { _, ok := <-r.Batches(); return ok },
		},
		"Events": {
			backlog: func(r *Receiver) (int, int) {
				return len(r.Events()) + len(r.Batches()), cap(r.Events()) + cap(r.Batches())
			},
			open: func(r *Receiver) bool { _, ok := <-r.Events(); return ok },
		},
	} {
		t.Run(name, func(t *testing.T) {
			recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Blast more events than the receiver buffers; nobody consumes,
			// so serve (and the Events view, once started) blocks mid-burst.
			go func() {
				for i := uint64(1); i <= 8192; i++ {
					if _, err := conn.Write(binFrame(0, sampleEvent(i))); err != nil {
						return
					}
				}
			}()
			// Wait until every queue is provably full.
			deadline := time.Now().Add(5 * time.Second)
			for held, room := stream.backlog(recv); held < room; held, room = stream.backlog(recv) {
				if time.Now().After(deadline) {
					t.Fatalf("queues never filled: %d of %d", held, room)
				}
				time.Sleep(time.Millisecond)
			}
			done := make(chan struct{})
			go func() {
				recv.Close()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Receiver.Close deadlocked with a blocked serve goroutine")
			}
			closed := make(chan struct{})
			go func() {
				for stream.open(recv) {
				}
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s stayed open after Close", name)
			}
		})
	}
}

// TestConcurrentSendDuringReconnect hammers Send from many goroutines
// while chaos-injected connection resets force reconnects mid-stream:
// every event must arrive exactly once, with zero shed and zero gaps.
func TestConcurrentSendDuringReconnect(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0", ReadTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSender(recv.Addr(), "stress")
	cfg.Ring = 1 << 14 // retain everything: resets must not shed
	cfg.Heartbeat = 5 * time.Millisecond
	cfg.Dialer = chaos.Dialer(chaos.Config{Seed: 42, Reset: 0.002})
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, per = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Send(sampleEvent(uint64(g*per + i + 1)))
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close (drain) failed: %v", err)
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Fatalf("shed %d frames with an oversized ring", st.Shed)
	}

	const total = goroutines * per
	counts := make(map[uint64]int, total)
	for _, ev := range takeEvents(t, recv, total, 20*time.Second) {
		if counts[ev.Seq]++; counts[ev.Seq] > 1 {
			t.Fatalf("event %d delivered %d times", ev.Seq, counts[ev.Seq])
		}
	}
	st := recv.AgentStats()["stress"]
	if st.Missing != 0 {
		t.Fatalf("receiver recorded %d missing frames; replay should cover resets", st.Missing)
	}
	if st.LastSeq != total {
		t.Fatalf("lastSeq = %d, want %d (monotonic sequence numbering broke)", st.LastSeq, total)
	}
	recv.Close()
}

// TestSendAllocatesNothingOnAWarmRing: once every slot of the ring has
// held a frame, spooling an event to a connected analyzer is allocation
// free — the frame is encoded into the slot's own buffer and the writer
// sends from its own.
func TestSendAllocatesNothingOnAWarmRing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	cfg := fastSender(ln.Addr().String(), "warm")
	cfg.Ring, cfg.Heartbeat = 256, -1
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := sampleEvent(1)
	ev.SrcAddr, ev.DstAddr = netip.MustParseAddrPort("10.0.0.7:41234"), netip.MustParseAddrPort("10.0.0.2:9292")
	ev.MsgID, ev.CorrID = "9f3c1e", "req-4b1d"
	for i := 0; i < 2*cfg.Ring; i++ {
		s.Send(ev)
	}
	if n := testing.AllocsPerRun(20*cfg.Ring, func() {
		ev.SrcAddr = netip.AddrPortFrom(ev.SrcAddr.Addr(), ev.SrcAddr.Port()+1)
		s.Send(ev)
	}); n != 0 {
		t.Fatalf("Send on a warm ring: %v allocations per event, want 0", n)
	}
}

// TestSendWhileWriterStalled is the case the ring's old aliasing rule
// existed for: the writer is blocked inside a socket write while Send
// keeps spooling until the ring has wrapped — twice — over the very slots
// that write was taken from. When the write is released, every frame the
// receiver admits must be intact (no CRC error, no resync, no decode
// error, fields consistent) and delivered + missing == sent must close.
func TestSendWhileWriterStalled(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var damage []*telemetry.Counter
	var before []uint64
	for _, name := range []string{"transport.crc_errors", "transport.resyncs", "transport.bytes_skipped", "transport.decode_errors"} {
		c := telemetry.GetCounter(name)
		damage, before = append(damage, c), append(before, c.Value())
	}

	// The sender connects once the first burst is spooled, over a net.Pipe
	// whose far end is not read until release closes: its first write — the
	// hello and that burst — blocks, and says so on writing.
	spooled, writing, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	cfg := fastSender(recv.Addr(), "staller")
	cfg.Ring, cfg.Heartbeat, cfg.WriteTimeout = 128, -1, time.Minute
	cfg.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		<-spooled
		up, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		near, far := net.Pipe()
		go func() {
			defer up.Close()
			<-release
			io.Copy(up, far)
		}()
		return &signalConn{Conn: near, writing: writing}, nil
	}
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Uint64
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		last := uint64(0)
		for batch := range recv.Batches() {
			for _, ev := range batch.Events {
				if ev != stallEvent(ev.Seq) || ev.Seq <= last {
					t.Errorf("admitted a damaged or reordered event after %d: %+v", last, ev)
				}
				last = ev.Seq
			}
			delivered.Add(uint64(len(batch.Events)))
			recv.Recycle(batch)
		}
	}()

	sent := uint64(0)
	send := func(n int) {
		for i := 0; i < n; i++ {
			sent++
			s.Send(stallEvent(sent))
		}
	}
	burst := cfg.Ring / 2
	send(burst)
	close(spooled)
	select {
	case <-writing:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never wrote")
	}
	send(3 * cfg.Ring) // over the blocked write's slots, twice, and again
	unblock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shed := s.Stats().Shed
	if want := sent - uint64(burst+cfg.Ring); shed != want {
		t.Fatalf("shed %d frames of %d, want %d: all but the blocked burst and the last ring", shed, sent, want)
	}
	ledger := func() AgentStat { return recv.AgentStats()["staller"] }
	for deadline := time.Now().Add(10 * time.Second); delivered.Load()+ledger().Missing != sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ledger open: %d delivered + %d missing != %d sent", delivered.Load(), ledger().Missing, sent)
		}
	}
	if st := ledger(); st.Missing != shed || st.Dups != 0 || st.LastSeq != sent {
		t.Fatalf("receiver ledger %+v, want missing=%d (the sender's shed count) dups=0 lastSeq=%d", st, shed, sent)
	}
	recv.Close()
	<-consumed
	for i, c := range damage {
		if got := c.Value() - before[i]; got != 0 {
			t.Errorf("counter %d of the damage set grew by %d", i, got)
		}
	}
}

// signalConn closes writing when its first Write begins.
type signalConn struct {
	net.Conn
	writing chan struct{}
	once    sync.Once
}

func (c *signalConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(p)
}

// stallEvent is an event every field of which names its sequence number,
// so bytes of two frames spliced together cannot pass for one.
func stallEvent(seq uint64) trace.Event {
	ev := sampleEvent(seq)
	ev.ConnID, ev.OpID, ev.WireBytes = seq, seq, int(seq)
	ev.SrcAddr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(seq >> 16), byte(seq >> 8), byte(seq)}), uint16(seq))
	ev.MsgID = strconv.FormatUint(seq, 16)
	return ev
}
