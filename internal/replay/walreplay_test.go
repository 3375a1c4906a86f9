package replay

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/scenario"
	"gretel/internal/seglog"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// driveWALSequential is DriveWAL on one goroutine: read a record, append
// it to the batch, feed the batch every ingestChunk records. It is the
// oracle the two-stage DriveWAL is held to.
func driveWALSequential(a *core.Analyzer, dir string, opt WALDrive) (WALResult, error) {
	r, err := wal.OpenReader(dir)
	if err != nil {
		return WALResult{}, err
	}
	defer r.Close()

	batch := make([]trace.Event, 0, ingestChunk)

	start := time.Now()
	var res WALResult
	var lastSeq uint64
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a.IngestBatch(batch)
		res.Events += len(batch)
		batch = batch[:0]
		if opt.OnBatch != nil {
			seg, total := r.Progress()
			opt.OnBatch(seg, total, lastSeq)
		}
	}
	crossed := opt.Barrier == 0
	for {
		seq, ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if opt.From > 0 && seq < opt.From {
			continue
		}
		if opt.To > 0 && seq > opt.To {
			break
		}
		if !crossed && seq > opt.Barrier {
			flush()
			crossed = true
			if opt.OnBarrier != nil {
				opt.OnBarrier()
			}
		}
		lastSeq = seq
		res.Bytes += uint64(ev.WireBytes)
		batch = append(batch, ev)
		if len(batch) >= ingestChunk {
			flush()
		}
	}
	flush()
	res.Wall = time.Since(start)
	res.rates()
	res.Reports = len(a.Reports())
	res.SnapshotsShed = a.Stats.SnapshotsShed
	r.Close()
	res.Recovery = r.Stats()
	return res, nil
}

// batchCall is one OnBatch invocation.
type batchCall struct {
	segment, total int
	lastSeq        uint64
}

// walRun is everything a DriveWAL caller can observe of one replay.
type walRun struct {
	res     WALResult // timing fields zeroed
	err     error
	batches []batchCall
	// barriers holds a.Stats.Events at each OnBarrier call.
	barriers []uint64
	// reports is the analyzer's reports as JSON once DriveWAL returned,
	// and closed the analyzer's reports after Close.
	reports, closed []byte
}

type walDriver func(*core.Analyzer, string, WALDrive) (WALResult, error)

// observe runs drive over dir into a fresh analyzer with opt's window and
// barrier, recording every callback.
func observe(t *testing.T, drive walDriver, dir string, opt WALDrive) walRun {
	t.Helper()
	a := core.New(scenario.CoreLibrary(), core.Config{Alpha: 256})
	var run walRun
	opt.OnBatch = func(seg, total int, lastSeq uint64) {
		run.batches = append(run.batches, batchCall{seg, total, lastSeq})
	}
	opt.OnBarrier = func() { run.barriers = append(run.barriers, a.Stats.Events) }
	run.res, run.err = drive(a, dir, opt)
	run.res.Wall, run.res.EventsPerSec, run.res.Mbps = 0, 0, 0
	run.reports = reportsJSON(t, a)
	a.Close()
	run.closed = reportsJSON(t, a)
	return run
}

// walLog writes events to a fresh log in dir, 100 to an append, into
// segments of at most segBytes (0: the default), and returns the segment
// paths in order.
func walLog(t *testing.T, dir string, events []trace.Event, segBytes int64) []string {
	return walLogPer(t, dir, events, segBytes, 100)
}

// walLogPer is walLog with per events to an append.
func walLogPer(t *testing.T, dir string, events []trace.Event, segBytes int64, per int) []string {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone, SegmentBytes: segBytes, RetainBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += per {
		if _, err := l.AppendBatch(events[lo:min(lo+per, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	return segs
}

// rewrite replaces path's bytes with edit's result.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to at most n, and returns the last count seen.
func settledGoroutines(n int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > n && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// openFiles counts the process's open file descriptors (0 where there is
// no /proc to ask).
func openFiles() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// TestDriveWALMatchesSequential is the differential test for DriveWAL's
// reader goroutine: over clean, damaged, empty and missing logs, and
// every From/To window and Barrier placement, the two-stage replay and
// the one-goroutine oracle produce the same reports, the same result and
// recovery ledger, the same OnBatch calls with the same arguments in the
// same order, and OnBarrier at the same ingested-event count. Neither
// the reader goroutine nor its segment file outlives DriveWAL.
func TestDriveWALMatchesSequential(t *testing.T) {
	const n = 2000
	events := Synthesize(StreamConfig{Events: n, Concurrency: 60, FaultEvery: 40, Seed: 31})
	v1, err := os.ReadFile(filepath.Join("..", "agent", "testdata", "event_frame_binary_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}

	clean := func(t *testing.T, dir string) { walLog(t, dir, events, 32<<10) }
	type walCase struct {
		name  string
		write func(t *testing.T, dir string)
		opt   WALDrive
		check func(t *testing.T, res WALResult)
	}
	cases := []walCase{
		{name: "clean multi-segment", write: clean, check: func(t *testing.T, res WALResult) {
			if res.Recovery.Segments < 3 || res.Events != n || res.Reports == 0 {
				t.Fatalf("want every event of a log of 3+ segments and some reports: %+v", res)
			}
		}},
		{name: "torn tail", write: func(t *testing.T, dir string) {
			segs := walLog(t, dir, events, 32<<10)
			rewrite(t, segs[len(segs)-1], func(b []byte) []byte { return b[:len(b)-7] })
		}, check: func(t *testing.T, res WALResult) {
			if !res.Recovery.TornTail || res.Recovery.Quarantined != 1 {
				t.Fatalf("torn tail not quarantined: %+v", res.Recovery)
			}
		}},
		{name: "corrupt record mid-log", write: func(t *testing.T, dir string) {
			segs := walLog(t, dir, events, 32<<10)
			rewrite(t, segs[1], func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b })
		}, check: func(t *testing.T, res WALResult) {
			if rs := res.Recovery; rs.Quarantined == 0 || rs.TornTail || rs.Records+rs.Quarantined != n {
				t.Fatalf("corrupt record misaccounted: %+v", rs)
			}
		}},
		{name: "garbage between records", write: func(t *testing.T, dir string) {
			segs := walLog(t, dir, events, 32<<10)
			junk := []byte{0xF5, 0x9E, 'X', 0xde, 0xad, 0xbe, 0xef, 0xF5}
			rewrite(t, segs[0], func(b []byte) []byte {
				return append(append(append([]byte{}, b[:len(b)/3]...), junk...), b[len(b)/3:]...)
			})
		}, check: func(t *testing.T, res WALResult) {
			if rs := res.Recovery; rs.BytesSkipped == 0 || rs.Records+rs.Quarantined != n {
				t.Fatalf("garbage misaccounted: %+v", rs)
			}
		}},
		{name: "v1 records quarantined", write: func(t *testing.T, dir string) {
			var seg []byte
			for i := range events[:600] {
				seq := uint64(i + 1)
				if seq%97 == 0 {
					seg = seglog.AppendRecord(seg, wal.KindEvent, seq, v1[seglog.HdrLen:])
					continue
				}
				seg = seglog.AppendRecord(seg, wal.KindEvent, seq, trace.AppendEvent(nil, &events[i]))
			}
			if err := os.WriteFile(filepath.Join(dir, seglog.SegmentName("wal-", 1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}, check: func(t *testing.T, res WALResult) {
			if rs := res.Recovery; rs.Quarantined != 6 || rs.Records != 594 || res.Events != 594 {
				t.Fatalf("want 6 v1 records quarantined of 600: fed %d, %+v", res.Events, rs)
			}
		}},
		{name: "window", write: clean, opt: WALDrive{From: 300, To: 1500}, check: func(t *testing.T, res WALResult) {
			if res.Events != 1201 {
				t.Fatalf("fed %d events, want 1201", res.Events)
			}
		}},
		{name: "To mid-log stops the scan", write: clean, opt: WALDrive{To: 700}, check: func(t *testing.T, res WALResult) {
			// The record after To ends the window; nothing past it is read.
			if rs := res.Recovery; res.Events != 700 || rs.Records != 701 || rs.LastSeq != 701 {
				t.Fatalf("fed %d, scanned %+v; want 700 fed and the scan stopped at 701", res.Events, rs)
			}
		}},
		{name: "To on a batch boundary", write: clean, opt: WALDrive{To: 512}},
		{name: "From only", write: clean, opt: WALDrive{From: 1999}},
		{name: "To past the end", write: clean, opt: WALDrive{From: 10, To: 5000}},
		{name: "barrier at 0", write: clean, opt: WALDrive{Barrier: 0}},
		{name: "barrier inside a batch", write: clean, opt: WALDrive{Barrier: 100}},
		{name: "barrier on a batch boundary", write: clean, opt: WALDrive{Barrier: 256}},
		{name: "barrier on the last record", write: clean, opt: WALDrive{Barrier: n}},
		{name: "barrier past the last record", write: clean, opt: WALDrive{Barrier: 10 * n}},
		{name: "barrier below From", write: clean, opt: WALDrive{From: 300, Barrier: 200}},
		{name: "barrier past To", write: clean, opt: WALDrive{To: 400, Barrier: 450}},
		{name: "barrier in a torn log", write: func(t *testing.T, dir string) {
			segs := walLog(t, dir, events, 32<<10)
			rewrite(t, segs[0], func(b []byte) []byte { b[len(b)/4] ^= 0xff; return b })
			rewrite(t, segs[len(segs)-1], func(b []byte) []byte { return b[:len(b)-3] })
		}, opt: WALDrive{Barrier: 1000}},
		{name: "empty directory", write: func(*testing.T, string) {}},
		{name: "missing directory", write: func(t *testing.T, dir string) {
			if err := os.Remove(dir); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// Cuts that fall inside a record, over logs of 1, 7 and 256 events
	// to an append: the reader returns a record's events one at a time,
	// and a window or barrier sees no record boundary.
	for _, per := range []int{1, 7, 256} {
		write := func(t *testing.T, dir string) { walLogPer(t, dir, events, 32<<10, per) }
		cases = append(cases,
			walCase{name: fmt.Sprintf("%d per append, From inside a record", per), write: write, opt: WALDrive{From: 303}},
			walCase{name: fmt.Sprintf("%d per append, To inside a record", per), write: write, opt: WALDrive{To: 700},
				check: func(t *testing.T, res WALResult) {
					if rs := res.Recovery; res.Events != 700 || rs.Records != 701 || rs.LastSeq != 701 {
						t.Fatalf("fed %d, scanned %+v; want 700 fed and the scan stopped at 701", res.Events, rs)
					}
				}},
			walCase{name: fmt.Sprintf("%d per append, barrier inside a record", per), write: write, opt: WALDrive{Barrier: 1000}},
			walCase{name: fmt.Sprintf("%d per append, all three inside records", per), write: write,
				opt: WALDrive{From: 303, To: 1700, Barrier: 1000},
				check: func(t *testing.T, res WALResult) {
					if res.Events != 1398 {
						t.Fatalf("fed %d events, want 1398", res.Events)
					}
				}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			want := observe(t, driveWALSequential, dir, tc.opt)
			before, files := runtime.NumGoroutine(), openFiles()
			got := observe(t, DriveWAL, dir, tc.opt)
			if open := openFiles(); open > files {
				t.Errorf("%d files open after DriveWAL, %d before", open, files)
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("%d goroutines after DriveWAL, %d before: the reader outlived it", after, before)
			}
			if got.err != nil || want.err != nil {
				t.Fatalf("errors: DriveWAL %v, oracle %v", got.err, want.err)
			}
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("result\n got  %+v\n want %+v", got.res, want.res)
			}
			if !reflect.DeepEqual(got.batches, want.batches) {
				t.Errorf("OnBatch calls differ\n got  %v\n want %v", got.batches, want.batches)
			}
			if !reflect.DeepEqual(got.barriers, want.barriers) {
				t.Errorf("OnBarrier at %v events ingested, oracle at %v", got.barriers, want.barriers)
			}
			if !bytes.Equal(got.reports, want.reports) || !bytes.Equal(got.closed, want.closed) {
				t.Errorf("reports differ: %d (%d after Close), oracle %d (%d)",
					got.res.Reports, len(got.closed), want.res.Reports, len(want.closed))
			}
			if tc.check != nil {
				tc.check(t, got.res)
			}
		})
	}
}

// TestDriveWALCallbackPanicStopsReader: a callback that panics unwinds
// DriveWAL on the caller's goroutine, and the reader, blocked on a full
// read-ahead, still exits, its scan closed before the panic leaves
// DriveWAL.
func TestDriveWALCallbackPanicStopsReader(t *testing.T) {
	dir := t.TempDir()
	walLog(t, dir, Synthesize(StreamConfig{Events: 3000, Seed: 4}), 0)
	before, files := runtime.NumGoroutine(), openFiles()
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		DriveWAL(core.New(scenario.CoreLibrary(), core.Config{}), dir, WALDrive{
			OnBatch: func(int, int, uint64) {
				time.Sleep(20 * time.Millisecond) // let the reader fill every batch
				panic("callback")
			},
		})
	}()
	select {
	case r := <-recovered:
		if r == nil {
			t.Fatal("the callback's panic did not reach the caller")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DriveWAL did not unwind: it is waiting on a reader that never stops")
	}
	if open := openFiles(); open > files {
		t.Errorf("%d files open after DriveWAL panicked, %d before: the reader was still scanning", open, files)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines after DriveWAL panicked, %d before", after, before)
	}
}
