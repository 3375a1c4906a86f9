package agent

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/fingerprint"
	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// TestRedialToReplacementAdoptsSession is the failover regression: an
// agent whose analyzer dies redials a *replacement* receiver that never
// saw its history. The ring has long since dropped the early frames
// (consumed by the dead analyzer), so the replacement's first payload
// frame carries a high sequence number — before session hellos, the
// receiver misread the whole unseen prefix as a gap. With the session
// base adopted, the replacement reports zero missing frames.
func TestRedialToReplacementAdoptsSession(t *testing.T) {
	recvA, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	recvB, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvB.Close()

	var target atomic.Value
	target.Store(recvA.Addr())
	cfg := fastSender("", "fed-agent")
	cfg.Addr = ""
	cfg.Resolve = func() (string, error) { return target.Load().(string), nil }
	cfg.Ring = 8 // retain only a short suffix: the prefix is unrecoverable
	s, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Feed in small drained batches so nothing sheds while A is alive:
	// the prefix must be *consumed* by the dead analyzer, not lost.
	const total = 100
	for i := uint64(1); i <= total; i++ {
		s.Send(sampleEvent(i))
		if i%4 == 0 {
			if err := s.Drain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if shed := s.Stats().Shed; shed != 0 {
		t.Fatalf("test setup shed %d frames", shed)
	}
	takeEvents(t, recvA, total, 5*time.Second)

	// Fail the analyzer over: reassign first, then kill A so the very
	// next redial resolves to the replacement.
	target.Store(recvB.Addr())
	recvA.Close()

	// The replacement receives the ring suffix; heartbeats then confirm
	// the high-water mark. Nothing in the unseen prefix may be counted
	// as missing.
	deadline := time.After(10 * time.Second)
	for {
		st, ok := recvB.AgentStats()["fed-agent"]
		if ok && st.LastSeq == total {
			if st.Missing != 0 {
				t.Fatalf("replacement counted %d missing frames from the unseen prefix", st.Missing)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("replacement never caught up: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	replayedAtB := 0
	for {
		select {
		case batch := <-recvB.Batches():
			for _, ev := range batch.Events {
				if ev.Seq <= total-uint64(cfg.Ring) {
					t.Fatalf("replacement received seq %d, below the retained suffix", ev.Seq)
				}
			}
			replayedAtB += len(batch.Events)
			recvB.Recycle(batch)
			continue
		case <-time.After(50 * time.Millisecond):
		}
		break
	}
	if replayedAtB == 0 {
		t.Fatal("ring suffix was not replayed to the replacement")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// walCapture consumes a receiver as replay.DriveTransport does: every
// hand-off into an analyzer whose capture is a fresh WAL, its record
// passed along. It counts the appends of each kind.
type walCapture struct {
	*wal.Log
	dir              string
	records, batches int
	a                *core.Analyzer
	recv             *Receiver
	done             chan struct{}
}

func (c *walCapture) AppendBatch(evs []trace.Event) (uint64, error) {
	c.batches++
	return c.Log.AppendBatch(evs)
}

func (c *walCapture) AppendRecord(rec []byte, n int) (uint64, error) {
	c.records++
	return c.Log.AppendRecord(rec, n)
}

func captureToWAL(t *testing.T, recv *Receiver) *walCapture {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	c := &walCapture{Log: log, dir: dir, a: core.New(fingerprint.NewLibrary(), core.Config{}), recv: recv, done: make(chan struct{})}
	c.a.SetCapture(c)
	go func() {
		defer close(c.done)
		for b := range recv.Batches() {
			c.a.IngestRecord(b.Events, b.Record)
			recv.Recycle(b)
		}
	}()
	return c
}

// stop closes the receiver and drains the consumer, checks the WAL's
// ledger — every event ingested appended once, and processed — and
// returns the sequence numbers of the events the log recovers, in order.
func (c *walCapture) stop(t *testing.T) []uint64 {
	t.Helper()
	c.recv.Close()
	<-c.done
	c.a.Close()
	if st := c.Log.Stats(); st.Appended != c.a.Stats.Events || c.Log.Cursor() != st.Appended || c.a.Stats.CaptureErrors != 0 {
		t.Fatalf("WAL ledger open: appended %d, cursor %d, ingested %d, capture errors %d",
			st.Appended, c.Log.Cursor(), c.a.Stats.Events, c.a.Stats.CaptureErrors)
	}
	if err := c.Log.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := wal.OpenReader(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var seqs []uint64
	for {
		_, ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if st := r.Stats(); st.Quarantined != 0 {
		t.Fatalf("WAL quarantined %d events", st.Quarantined)
	}
	return seqs
}

// TestRedialReplayIsCapturedOnce: an agent redials the same analyzer,
// and the ring it replays repeats frames already delivered in the same
// socket read as new ones. Duplicates were compacted out of that
// hand-off, so it carries no record and the WAL takes it through
// AppendBatch; the first connection's hand-off is written as its record.
// The ledger closes: each event is appended once, and the log recovers
// the stream in order.
func TestRedialReplayIsCapturedOnce(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.KeepRecords()
	c := captureToWAL(t, recv)
	const a = "redial-agent"
	serveScript(recv, append(helloFrame(a, 7, 0), seqFrames(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)...))
	serveScript(recv, append(helloFrame(a, 7, 0), seqFrames(6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)...))
	got := c.stop(t)
	wantSeqs(t, got, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
	if c.records != 1 || c.batches != 1 {
		t.Fatalf("%d record and %d batch appends, want the first hand-off's record and the replay's AppendBatch", c.records, c.batches)
	}
	if st := recv.AgentStats()[a]; st.Dups != 5 || st.Missing != 0 {
		t.Fatalf("stats %+v, want 5 duplicates and nothing missing", st)
	}
}

// TestAgentRestartStartsNewSession: a restarted agent re-registers with
// a fresh session and a sequence space starting over at 1. The receiver
// must accept the new stream rather than deduplicating it against the
// dead session's high-water mark.
func TestAgentRestartStartsNewSession(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	cfg := fastSender(recv.Addr(), "phoenix")
	cfg.Session = 1
	s1, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		s1.Send(sampleEvent(i))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	takeEvents(t, recv, 50, 5*time.Second) // the first incarnation

	cfg.Session = 2
	s2, err := DialConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := uint64(1); i <= 10; i++ {
		s2.Send(sampleEvent(i))
	}
	if err := s2.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Short of 10, the restart was deduplicated against the old session.
	takeEvents(t, recv, 10, 5*time.Second)
	st := recv.AgentStats()["phoenix"]
	if st.Dups != 0 || st.Missing != 0 {
		t.Fatalf("restart accounting polluted: %+v", st)
	}
}

// TestReceiverHelloSessionStateMachine pins the tracker transitions
// directly: reconnect vs shed-while-away vs new session, and a refused
// hello.
func TestReceiverHelloSessionStateMachine(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	const a = "sm-agent"
	admit := func(seq uint64) bool { return recv.admitRun(a, []uint64{seq}, nil) == 1 }
	recv.hello(a, 7, 10) // first contact mid-stream: adopt base 10
	if st := recv.AgentStats()[a]; st.LastSeq != 10 || st.Missing != 0 {
		t.Fatalf("after first hello: %+v", st)
	}
	if !admit(11) {
		t.Fatal("seq 11 rejected after base 10")
	}
	if admit(5) {
		t.Fatal("below-base frame not deduplicated")
	}
	recv.hello(a, 7, 10) // same-session reconnect, base behind: no-op
	if st := recv.AgentStats()[a]; st.LastSeq != 11 || st.Missing != 0 {
		t.Fatalf("after reconnect hello: %+v", st)
	}
	recv.hello(a, 7, 20) // same session, base advanced: 12..20 shed = real gap
	if st := recv.AgentStats()[a]; st.LastSeq != 20 || st.Missing != 9 {
		t.Fatalf("after shed hello: %+v", st)
	}
	recv.hello(a, 8, 3) // new session: adopt, keep lifetime totals
	st := recv.AgentStats()[a]
	if st.LastSeq != 3 || st.Missing != 9 {
		t.Fatalf("after new-session hello: %+v", st)
	}
	if !admit(4) {
		t.Fatal("new session's frames rejected")
	}
	// A hello with no session, or one that does not parse, is refused on
	// the wire: counted as a decode error, with no state change.
	decode := telemetry.GetCounter("transport.decode_errors")
	before := decode.Value()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(helloFrame(a, 0, 0))
	conn.Write(seglog.AppendRecord(nil, frameHello, 0, []byte(`{"agent":`)))
	waitCounterAbove(t, decode, before+1)
	if stats := recv.AgentStats(); len(stats) != 1 || stats[a].LastSeq != 4 || stats[a].Missing != 9 {
		t.Fatalf("refused hellos mutated state: %+v", stats)
	}
}

func TestDialConfigNeedsAddrOrResolver(t *testing.T) {
	if _, err := DialConfig(SenderConfig{Agent: "x"}); err == nil {
		t.Fatal("sender with neither Addr nor Resolve accepted")
	}
	s, err := DialConfig(SenderConfig{Agent: "x", Resolve: func() (string, error) { return "", nil }})
	if err != nil {
		t.Fatalf("resolver-only sender rejected: %v", err)
	}
	s.Close()
}
