package agent

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

func helloFrame(agent string, session, base uint64) []byte {
	body, _ := json.Marshal(helloBody{Agent: agent, Session: session, Base: base})
	return seglog.AppendRecord(nil, frameHello, 0, body)
}

func seqFrames(seqs ...uint64) []byte {
	var out []byte
	for _, seq := range seqs {
		out = append(out, binFrame(seq, sampleEvent(seq))...)
	}
	return out
}

func dialRaw(t *testing.T, recv *Receiver) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// takeSeqs reads batches until want events arrived and returns their
// sequence numbers in delivery order, plus how many batches carried them.
func takeSeqs(t *testing.T, recv *Receiver, want int) (seqs []uint64, batches int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for len(seqs) < want {
		select {
		case batch, ok := <-recv.Batches():
			if !ok {
				t.Fatalf("receiver closed after %d of %d events", len(seqs), want)
			}
			if len(batch.Events) == 0 || len(batch.Events) > recvBatchMax {
				t.Fatalf("batch of %d events handed over (want 1..%d)", len(batch.Events), recvBatchMax)
			}
			wantRecord(t, batch)
			for i := range batch.Events {
				seqs = append(seqs, batch.Events[i].Seq)
			}
			batches++
			recv.Recycle(batch)
		case <-timeout:
			t.Fatalf("timeout after %d of %d events", len(seqs), want)
		}
	}
	return seqs, batches
}

func wantSeqs(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestAdmitRunCompactsInPlace pins the one admission function on a run
// that holds everything at once: replayed duplicates at the front, new
// frames, a gap, an unsequenced frame.
func TestAdmitRunCompactsInPlace(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	const a = "run-agent"
	recv.hello(a, 7, 10)
	seqs := []uint64{9, 10, 11, 12, 0, 16, 12, 17}
	evs := make([]trace.Event, len(seqs))
	for i := range evs {
		evs[i] = sampleEvent(uint64(100 + i)) // Seq-100 names the slot it started in
	}
	kept := recv.admitRun(a, seqs, evs)
	var got []uint64
	for i := range evs[:kept] {
		got = append(got, evs[i].Seq-100)
	}
	wantSeqs(t, got, 2, 3, 4, 5, 7) // positions of 11, 12, 0, 16, 17
	if st := recv.AgentStats()[a]; st.LastSeq != 17 || st.Missing != 3 || st.Dups != 3 {
		t.Fatalf("stats = %+v, want lastSeq=17 missing=3 dups=3", st)
	}
	select {
	case h := <-recv.Health():
		if h.Kind != HealthGap || h.Missing != 3 {
			t.Fatalf("health = %+v, want one gap of 3", h)
		}
	default:
		t.Fatal("no gap record for 13..15")
	}
	select {
	case h := <-recv.Health():
		t.Fatalf("second health record %+v for one gap", h)
	default:
	}
}

// TestReconnectReplayInsideOneBatch: a reconnect whose hello base moved
// (frames shed while away), whose ring replay repeats frames already
// delivered, and whose live frames follow at once — all in one write, so
// duplicates, new frames and a gap share a batch. Dups are compacted
// out, the gap surfaces once with the right count, and the ledger
// closes: delivered + missing == sent.
func TestReconnectReplayInsideOneBatch(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	const a = "replay-agent"

	first := dialRaw(t, recv)
	first.Write(append(helloFrame(a, 7, 0), seqFrames(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)...))
	got, _ := takeSeqs(t, recv, 10)
	wantSeqs(t, got, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	first.Close()

	// The ring now starts at 6; 13..15 were shed before they were written.
	second := dialRaw(t, recv)
	second.Write(append(helloFrame(a, 7, 5), seqFrames(6, 7, 8, 9, 10, 11, 12, 16, 17, 18, 19, 20)...))
	got, batches := takeSeqs(t, recv, 7)
	wantSeqs(t, got, 11, 12, 16, 17, 18, 19, 20)
	t.Logf("replay of 12 frames arrived in %d batch(es)", batches)

	select {
	case h := <-recv.Health():
		if h.Kind != HealthGap || h.Agent != a || h.Missing != 3 {
			t.Fatalf("health = %+v, want one gap of 3", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no gap record")
	}
	const sent = 20
	st := recv.AgentStats()[a]
	if delivered := uint64(10 + len(got)); delivered+st.Missing != sent || st.Dups != 5 || st.LastSeq != sent {
		t.Fatalf("ledger open: %d delivered + %d missing != %d sent (stats %+v)", delivered, st.Missing, sent, st)
	}
}

// TestCorruptFrameMidRead: one frame of a burst fails its CRC. The
// resync is counted, the frames on both sides are delivered in order,
// and the lost one is a gap, not silence.
func TestCorruptFrameMidRead(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	resyncs, crcs := telemetry.GetCounter("transport.resyncs"), telemetry.GetCounter("transport.crc_errors")
	resyncs0, crcs0 := resyncs.Value(), crcs.Value()

	bad := seqFrames(3)
	bad[frameHdrLen+2] ^= 0x40
	burst := append(helloFrame("crc-agent", 1, 0), seqFrames(1, 2)...)
	burst = append(append(burst, bad...), seqFrames(4, 5)...)
	dialRaw(t, recv).Write(burst)

	got, _ := takeSeqs(t, recv, 4)
	wantSeqs(t, got, 1, 2, 4, 5)
	if r, c := resyncs.Value()-resyncs0, crcs.Value()-crcs0; r != 1 || c != 1 {
		t.Fatalf("resyncs=%d crc_errors=%d, want 1 and 1", r, c)
	}
	if st := recv.AgentStats()["crc-agent"]; st.Missing != 1 || st.LastSeq != 5 {
		t.Fatalf("stats = %+v, want the corrupt frame recorded missing", st)
	}
}

// TestWholeFrameIsNotHeldForTheNext is the latency rule: the receiver
// never waits on the socket while holding decoded events. One whole
// frame followed by half a frame and silence delivers the whole one at
// once, not when the rest arrives or ReadTimeout fires.
func TestWholeFrameIsNotHeldForTheNext(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0", ReadTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn := dialRaw(t, recv)
	second := seqFrames(2)
	half := len(second) / 2
	start := time.Now()
	conn.Write(append(seqFrames(1), second[:half]...))
	got, _ := takeSeqs(t, recv, 1)
	wantSeqs(t, got, 1)
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("a whole frame waited %v behind half of the next one", waited)
	}
	select {
	case batch := <-recv.Batches():
		t.Fatalf("half a frame delivered %d events", len(batch.Events))
	case <-time.After(20 * time.Millisecond):
	}
	conn.Write(second[half:])
	got, _ = takeSeqs(t, recv, 1)
	wantSeqs(t, got, 2)
}

// TestReadTimeoutBoundsAFrameNotAnIdleStream: ReadTimeout is armed when
// a frame's first socket read happens. A connection that carries only
// heartbeats, each well inside the timeout, stays up for many timeouts;
// a peer that stops in the middle of a frame is dropped.
func TestReadTimeoutBoundsAFrameNotAnIdleStream(t *testing.T) {
	const readTimeout = 150 * time.Millisecond
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0", ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	dropped := telemetry.GetCounter("transport.connections_dropped")
	dropped0 := dropped.Value()

	conn := dialRaw(t, recv)
	conn.Write(helloFrame("idle-agent", 1, 0))
	hb, _ := json.Marshal(heartbeatBody{Agent: "idle-agent"})
	for i := 0; i < 12; i++ { // four timeouts' worth of idle stream
		time.Sleep(readTimeout / 3)
		if _, err := conn.Write(seglog.AppendRecord(nil, frameHeartbeat, 0, hb)); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	conn.Write(seqFrames(1))
	got, _ := takeSeqs(t, recv, 1)
	wantSeqs(t, got, 1)
	if d := dropped.Value() - dropped0; d != 0 {
		t.Fatalf("idle connection dropped %d time(s) despite heartbeats", d)
	}

	frame := seqFrames(2)
	conn.Write(frame[:len(frame)/2])
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer silent mid-frame: read returned %v, want the receiver to close the connection", err)
	}
	if d := dropped.Value() - dropped0; d != 1 {
		t.Fatalf("connections_dropped moved by %d, want 1", d)
	}
}

// scriptConn is a connection whose reads return its chunks in order, at
// most one chunk per read, and then io.EOF: it fixes where socket reads
// fall, which a loopback connection leaves to the kernel.
type scriptConn struct {
	net.Conn // nil: serve only reads, closes and arms read deadlines
	chunks   [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}
func (c *scriptConn) Close() error                    { return nil }
func (c *scriptConn) RemoteAddr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// serveScript runs the receiver's connection reader over chunks until
// they end, every hand-off made.
func serveScript(recv *Receiver, chunks ...[]byte) {
	recv.wg.Add(1)
	recv.serve(&scriptConn{chunks: chunks})
}

// bigEvent is sampleEvent(seq) with an error text of size bytes.
func bigEvent(seq uint64, size int) trace.Event {
	ev := sampleEvent(seq)
	ev.ErrorText = string(bytes.Repeat([]byte{'e'}, size))
	return ev
}

// TestRecordClosesBeforeBatchBytes: a hand-off keeping a record goes out
// before the next body would take the record past seglog.BatchBytes. The
// reads are placed so one hand-off would otherwise take both frames: the
// first frame's tail arrives in the same read as the whole second one.
func TestRecordClosesBeforeBatchBytes(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.KeepRecords()
	one, two := binFrame(1, bigEvent(1, 50<<10)), binFrame(2, bigEvent(2, 30<<10))
	if len(one)+len(two) <= seglog.BatchBytes || len(one)-30<<10+len(two) > sockBufBytes {
		t.Fatalf("frames of %d and %d bytes do not set the case up", len(one), len(two))
	}
	serveScript(recv, one[:30<<10], append(one[30<<10:], two...))
	for seq := uint64(1); seq <= 2; seq++ {
		select {
		case b := <-recv.Batches():
			if len(b.Events) != 1 || b.Events[0].Seq != seq || len(b.Record) == 0 || len(b.Record)-seglog.HdrLen > seglog.BatchBytes {
				t.Fatalf("hand-off %d: %d events, record of %d bytes; want event %d alone, in a record within %d bytes",
					seq, len(b.Events), len(b.Record), seq, seglog.BatchBytes)
			}
			wantRecord(t, b)
		default:
			t.Fatalf("hand-off %d missing", seq)
		}
	}
}

// TestUndecodableFrameIsNotCaptured: a CRC-valid event frame whose body
// does not decode, mid-burst, is skipped; the hand-off's record holds the
// bodies of the events around it and nothing of it, and the WAL that
// writes the record recovers exactly those events.
func TestUndecodableFrameIsNotCaptured(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.KeepRecords()
	c := captureToWAL(t, recv)
	good := binFrame(3, sampleEvent(3))[frameHdrLen:]
	burst := append(helloFrame("bad-agent", 1, 0), seqFrames(1, 2)...)
	burst = append(burst, seglog.AppendRecord(nil, frameEvent, 3, append([]byte{0xff}, good...))...) // unknown body version
	serveScript(recv, append(burst, seqFrames(4, 5)...))
	got := c.stop(t)
	wantSeqs(t, got, 1, 2, 4, 5)
	if c.records != 1 || c.batches != 0 {
		t.Fatalf("%d record and %d batch appends, want the one hand-off written as its record", c.records, c.batches)
	}
}
