package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/scenario"
	"gretel/internal/seglog"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// tapeConn is a Sender's connection into memory. After limit bytes
// (0 = never) its writes fail, as a connection dying mid-stream would.
type tapeConn struct {
	net.Conn // nil: a Sender only writes, closes and arms write deadlines
	mu       sync.Mutex
	buf      bytes.Buffer
	limit    int
}

func (c *tapeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit > 0 && c.buf.Len()+len(p) > c.limit {
		n, _ := c.buf.Write(p[:c.limit-c.buf.Len()])
		return n, errors.New("tape: connection cut")
	}
	return c.buf.Write(p)
}
func (c *tapeConn) Close() error                     { return nil }
func (c *tapeConn) SetWriteDeadline(time.Time) error { return nil }
func (c *tapeConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Bytes()
}

// captureReconnect runs a real Sender over events (a state update every
// 500) whose first connection dies cut bytes in, and returns what each
// of its two connections carried: a prefix that ends mid-frame, then a
// hello and the whole ring replayed from the start.
func captureReconnect(t *testing.T, events []trace.Event, cut int) (first, second []byte, states int) {
	t.Helper()
	conns := []*tapeConn{{limit: cut}, {}}
	dials := 0
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr: "tape", Agent: "tape-agent", Session: 1, Ring: 1 << 14, Heartbeat: -1,
		BackoffMin: time.Millisecond, BackoffMax: time.Millisecond,
		Dialer: func(string, time.Duration) (net.Conn, error) {
			if dials == len(conns) {
				return nil, errors.New("tape: no third connection")
			}
			dials++
			return conns[dials-1], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		snd.Send(events[i])
		if i%500 == 499 {
			snd.SendState(agent.StateUpdate{Nodes: []agent.NodeState{{Name: "n1", Up: true}}})
			states++
		}
	}
	if err := snd.Close(); err != nil {
		t.Fatal(err)
	}
	if st := snd.Stats(); st.Shed != 0 || dials != 2 {
		t.Fatalf("capture: shed %d frames over %d connections, want 0 over 2", st.Shed, dials)
	}
	return conns[0].bytes(), conns[1].bytes(), states
}

// lastWholeSeq is the sequence number of the last intact frame in b.
func lastWholeSeq(b []byte) (last uint64) {
	br := bufio.NewReader(bytes.NewReader(b))
	for {
		_, seq, _, _, err := seglog.ReadRecord(br, "IBSH", nil, seglog.File)
		if err != nil {
			return last
		}
		last = max(last, seq)
	}
}

// countingCapture is a wal.Log that tells the test, from the ingest
// goroutine, how many events the analyzer has been handed, and counts
// the appends of each kind.
type countingCapture struct {
	*wal.Log
	events           atomic.Uint64
	batches, records int
}

func (c *countingCapture) AppendBatch(evs []trace.Event) (uint64, error) {
	last, err := c.Log.AppendBatch(evs)
	c.batches++
	c.events.Add(uint64(len(evs)))
	return last, err
}

func (c *countingCapture) AppendRecord(rec []byte, n int) (uint64, error) {
	last, err := c.Log.AppendRecord(rec, n)
	c.records++
	c.events.Add(uint64(n))
	return last, err
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// play feeds the two captured connections to a fresh receiver one after
// the other, in uneven chunks so frames straddle socket reads, while
// consume drains it; delivered reports how many events consume has seen.
func play(t *testing.T, first, second []byte, want int, delivered func() uint64, consume func(*agent.Receiver)) map[string]agent.AgentStat {
	t.Helper()
	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		consume(recv)
	}()
	send := func(b []byte) {
		conn, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for chunk := 1; len(b) > 0; chunk = chunk*7%4093 + 1 {
			n := min(chunk, len(b))
			if _, err := conn.Write(b[:n]); err != nil {
				t.Fatal(err)
			}
			b = b[n:]
		}
	}
	send(first)
	seen := lastWholeSeq(first)
	waitFor(t, "the first connection to be consumed", func() bool { return recv.AgentStats()["tape-agent"].LastSeq >= seen })
	send(second)
	waitFor(t, "every event to be delivered", func() bool { return delivered() >= uint64(want) })
	seen = lastWholeSeq(second) // the stream may end in state frames
	waitFor(t, "the second connection to be consumed", func() bool { return recv.AgentStats()["tape-agent"].LastSeq >= seen })
	stats := recv.AgentStats()
	recv.Close()
	<-done
	return stats
}

func reportsJSON(t *testing.T, a *core.Analyzer) []byte {
	t.Helper()
	b, err := json.Marshal(a.Reports())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchPathMatchesPerEventReference is the differential test for the
// batch hand-off. One captured reconnect — a connection cut mid-frame,
// then the ring replayed from the start, so a run of duplicates leads
// straight into new frames — goes byte for byte through
//
//   - DriveTransport with a WAL attached (the production path, where
//     the WAL writes the receiver's records), and again behind a
//     capture without AppendRecord,
//   - a consumer that scribbles over every batch once IngestBatch has
//     returned, before recycling it (nothing may still alias the slice,
//     and a reused slot must be overwritten whole), and
//   - the per-event loop DriveTransport used to be: one Ingest per event.
//
// All three must give the reports of in-process ingestion, byte for
// byte, and the same per-agent accounting; the ledgers must close.
func TestBatchPathMatchesPerEventReference(t *testing.T) {
	const n = 4000
	events := Synthesize(StreamConfig{Events: n, Concurrency: 50, FaultEvery: 100, Seed: 17})
	first, second, states := captureReconnect(t, events, 150<<10)
	if len(first) != 150<<10 || lastWholeSeq(second) != uint64(n+states) {
		t.Fatalf("capture: first connection %d bytes, second ends at seq %d", len(first), lastWholeSeq(second))
	}
	newAnalyzer := func() *core.Analyzer { return core.New(scenario.CoreLibrary(), core.Config{Alpha: 256}) }

	direct := newAnalyzer()
	Drive(direct, events)
	want := reportsJSON(t, direct)
	if len(direct.Reports()) == 0 {
		t.Fatal("the stream produced no reports; the comparison would prove nothing")
	}

	// Production: DriveTransport with a WAL attached, which writes the
	// receiver's records as they are; and the same behind a capture that
	// cannot take records, handed AppendBatch for every hand-off.
	var batchStats map[string]agent.AgentStat
	for _, records := range []bool{true, false} {
		log, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		capture := &countingCapture{Log: log}
		batched := newAnalyzer()
		batched.SetCapture(capture)
		if !records {
			batched.SetCapture(struct{ core.Capture }{capture}) // AppendRecord hidden
		}
		var res Result
		var gotStates int
		stats := play(t, first, second, n, capture.events.Load, func(recv *agent.Receiver) {
			res = DriveTransport(batched, recv, func(agent.StateUpdate) { gotStates++ })
		})
		if got := reportsJSON(t, batched); !bytes.Equal(got, want) {
			t.Fatalf("DriveTransport (records %v): %d reports differ from in-process ingestion's %d", records, len(batched.Reports()), len(direct.Reports()))
		}
		var wantBytes uint64
		for i := range events {
			wantBytes += uint64(events[i].WireBytes)
		}
		if res.Events != n || res.Bytes != wantBytes || res.Gaps != 0 || gotStates != states {
			t.Fatalf("DriveTransport result %+v (%d states), want %d events, %d bytes, no gaps, %d states", res, gotStates, n, wantBytes, states)
		}
		st := stats["tape-agent"]
		if sent := uint64(n + states); batched.Stats.Events+uint64(gotStates)+st.Missing != sent || st.Missing != 0 || st.LastSeq != sent {
			t.Fatalf("transport ledger open: %d events + %d states delivered, stats %+v, %d sent", batched.Stats.Events, gotStates, st, sent)
		}
		if st.Dups != lastWholeSeq(first) {
			t.Fatalf("dups = %d, want every frame the first connection delivered (%d) deduplicated on replay", st.Dups, lastWholeSeq(first))
		}
		if ws := log.Stats(); ws.Appended != batched.Stats.Events || batched.Stats.CaptureErrors != 0 || log.Cursor() != ws.Appended {
			t.Fatalf("WAL ledger open: appended %d, cursor %d, ingested %d, capture errors %d",
				ws.Appended, log.Cursor(), batched.Stats.Events, batched.Stats.CaptureErrors)
		}
		if appends := capture.batches + capture.records; appends >= n || records != (capture.records > 0) {
			t.Fatalf("records %v: %d record and %d batch appends for %d events", records, capture.records, capture.batches, n)
		}
		t.Logf("records %v: %d events in %d record and %d batch appends", records, n, capture.records, capture.batches)
		if batchStats != nil && !reflect.DeepEqual(stats, batchStats) {
			t.Fatalf("agent stats differ: records %+v, AppendBatch only %+v", batchStats, stats)
		}
		batchStats = stats
	}

	// Ownership: the consumer owns the batch between receive and Recycle.
	scribbled := newAnalyzer()
	var count atomic.Uint64
	scribble := netip.MustParseAddrPort("[2001:db8::5c]:65535")
	garbage := trace.Event{
		Seq: 1 << 40, Time: time.Unix(1, 1), Type: trace.RPCReply, API: trace.RPCAPI(trace.SvcSwift, "scribble"),
		SrcNode: "scribble", DstNode: "scribble", SrcAddr: scribble, DstAddr: scribble, ConnID: 1 << 40,
		MsgID: "scribble", CorrID: "scribble", Status: 599, ErrorText: "scribble", WireBytes: 1 << 20, OpID: 1 << 40, OpName: "scribble",
	}
	scribbleStats := play(t, first, second, n, count.Load, func(recv *agent.Receiver) {
		for batch := range recv.Batches() {
			scribbled.IngestBatch(batch.Events)
			count.Add(uint64(len(batch.Events)))
			for i := range batch.Events {
				batch.Events[i] = garbage
			}
			recv.Recycle(batch)
		}
		scribbled.Close()
	})
	if got := reportsJSON(t, scribbled); !bytes.Equal(got, want) {
		t.Fatal("reports changed when batches were overwritten after IngestBatch returned")
	}

	// Reference: one Ingest per event of each batch.
	perEvent := newAnalyzer()
	count.Store(0)
	refStats := play(t, first, second, n, count.Load, func(recv *agent.Receiver) {
		for batch := range recv.Batches() {
			for _, ev := range batch.Events {
				perEvent.Ingest(ev)
				count.Add(1)
			}
			recv.Recycle(batch)
		}
		perEvent.Close()
	})
	if got := reportsJSON(t, perEvent); !bytes.Equal(got, want) {
		t.Fatal("per-event reference consumer disagrees with in-process ingestion")
	}
	if !reflect.DeepEqual(batchStats, refStats) || !reflect.DeepEqual(batchStats, scribbleStats) {
		t.Fatalf("agent stats differ: batch %+v, scribbled %+v, per-event %+v", batchStats, scribbleStats, refStats)
	}
}
