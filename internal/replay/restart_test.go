package replay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/scenario"
	"gretel/internal/telemetry"
	"gretel/internal/wal"
)

// incarnation is one analyzer process: boot recovery from the WAL as
// `gretel analyze -wal` runs it, then a receiver on addr driven into the
// analyzer with the WAL capturing. dead stands for SIGKILL: once set,
// nothing the process still emits is seen.
type incarnation struct {
	a    *core.Analyzer
	recv *agent.Receiver
	dead atomic.Bool
	done chan struct{}
}

func bootFromWAL(t *testing.T, addr, dir string, reported func(seq uint64)) *incarnation {
	t.Helper()
	inc := &incarnation{a: core.New(scenario.CoreLibrary(), core.Config{Alpha: 256}), done: make(chan struct{})}
	var bootQuiet atomic.Bool
	inc.a.OnReport(func(rep *core.Report) {
		if !bootQuiet.Load() && !inc.dead.Load() && rep.Kind == core.Operational {
			reported(rep.Fault.Seq)
		}
	})
	cursor := wal.LoadCursor(dir)
	bootQuiet.Store(cursor > 0)
	if _, err := DriveWAL(inc.a, dir, WALDrive{Barrier: cursor, OnBarrier: func() { bootQuiet.Store(false) }}); err != nil {
		t.Fatal(err)
	}
	bootQuiet.Store(false)
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	inc.a.SetCapture(log)
	if inc.recv, err = agent.ListenConfig(agent.ReceiverConfig{Addr: addr}); err != nil {
		t.Fatal(err)
	}
	go func() {
		DriveTransport(inc.a, inc.recv, nil)
		close(inc.done)
	}()
	// The test abandons the log mid-stream; the file is released only
	// once the process it belonged to has stopped.
	t.Cleanup(func() {
		inc.recv.Close()
		<-inc.done
		log.Close()
	})
	return inc
}

// TestWALRestartLosesNothing is the failover contract at test size: a
// paced Sender streams to a WAL-capturing analyzer, the analyzer dies
// mid-stream (its receiver closed, the analyzer and its wal.Log
// abandoned without Close), frames spool while it is down, and a new
// one boots from the same directory on the same address. The ring has
// wrapped by then, so the restarted receiver meets a hello whose base
// is past frames it never saw. The ring covers the downtime: nothing is
// shed, the restarted receiver counts nothing missing, the redial
// re-admits no more than the ring held, and every fault sent after the
// kill is reported.
func TestWALRestartLosesNothing(t *testing.T) {
	const (
		total  = 3000
		killAt = 2000
		down   = 200 // frames spooled while no analyzer listens
		ring   = 1024
	)
	events := Synthesize(StreamConfig{Events: total, Concurrency: 40, FaultEvery: 50, Seed: 3})
	dir := t.TempDir()
	var (
		mu       sync.Mutex
		reported = map[uint64]int{}
	)
	report := func(seq uint64) {
		mu.Lock()
		reported[seq]++
		mu.Unlock()
	}
	first := bootFromWAL(t, "127.0.0.1:0", dir, report)
	addr := first.recv.Addr()

	replayed := telemetry.GetCounter("transport.frames_replayed")
	replayed0 := replayed.Value()
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr: addr, Agent: "restart-agent", Ring: ring,
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond, DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var second *incarnation
	for i := range events {
		switch i {
		case killAt:
			first.dead.Store(true)
			first.recv.Close()
		case killAt + down:
			second = bootFromWAL(t, addr, dir, report)
			waitFor(t, "the sender to replay its spool into the restarted receiver", func() bool {
				return second.recv.AgentStats()["restart-agent"].LastSeq == killAt+down
			})
		}
		snd.Send(events[i])
		if i%25 == 24 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := snd.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the restarted receiver to reach the last frame", func() bool {
		return second.recv.AgentStats()["restart-agent"].LastSeq == total
	})
	second.recv.Close() // flushes the analyzer: every window closes
	<-second.done
	<-first.done

	if shed := snd.Stats().Shed; shed != 0 {
		t.Errorf("sender shed %d frames across a restart its ring covers", shed)
	}
	if st := second.recv.AgentStats()["restart-agent"]; st.Missing != 0 {
		t.Errorf("restarted receiver counts %d frames missing", st.Missing)
	}
	if n := replayed.Value() - replayed0; n == 0 || n > ring {
		t.Errorf("redial re-admitted %d frames, want 1..%d (the ring)", n, ring)
	}
	mu.Lock()
	defer mu.Unlock()
	faults := 0
	for _, ev := range events[killAt:] {
		if ev.Status >= 500 {
			faults++
			if reported[ev.Seq] == 0 {
				t.Errorf("fault seq %d, sent after the kill, never reported", ev.Seq)
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault sent after the kill: the stream tests nothing")
	}
}
