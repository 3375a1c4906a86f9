// Crash soak, the analyzer's half: a writer is killed mid-append at
// random byte offsets (torn records) and at clean record boundaries,
// over and over, recovering between kills and re-appending what the
// tear lost; when the full stream has finally been captured, replaying
// the log through the analyzer must produce reports byte-identical to
// an uninterrupted run. The per-crash ledger (recovered + quarantined
// == written, torn-tail attribution, dense resume) is the segment
// log's and is soaked there, under both of its test codecs
// (internal/seglog TestCrashSoak); here each cycle checks only what
// the event codec adds — no acked event lost, every one decoding to
// itself.
//
// External test package: the soak drives the real replay/core stack,
// which imports wal.

package wal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gretel/internal/chaos"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/replay"
	"gretel/internal/seglog"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// scan runs a full recovery pass and returns the intact events + stats.
func scan(t *testing.T, dir string) ([]trace.Event, wal.ReadStats) {
	t.Helper()
	r, err := wal.OpenReader(dir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	var out []trace.Event
	for {
		_, ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, ev)
	}
	r.Close()
	return out, r.Stats()
}

func TestWALCrashSoak(t *testing.T) {
	total := 3000
	if testing.Short() {
		total = 800
	}
	events := replay.Synthesize(replay.StreamConfig{
		Concurrency: 100, Events: total, FaultEvery: 97, Seed: 42,
	})

	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	appended := 0 // records proven durable at cycle start
	var tears int

	for cycle := 0; appended < total; cycle++ {
		if cycle > 400 {
			t.Fatalf("soak not converging: %d/%d after %d cycles", appended, total, cycle)
		}
		// Half the crashes land mid-write (torn record), half at a clean
		// record boundary.
		torn := rng.Intn(2) == 0
		killBytes := int64(0)
		if torn {
			killBytes = int64(200 + rng.Intn(40000))
		}
		cleanStop := 1 + rng.Intn(120)

		opts := wal.Options{
			Dir: dir, SegmentBytes: 256 << 10, Fsync: wal.FsyncNone, RetainBytes: -1,
		}
		if torn {
			opts.WrapWriter = func(w io.Writer) io.Writer {
				return chaos.WrapWriter(w, chaos.WriterConfig{
					Seed: rng.Int63(), KillAfterBytes: killBytes,
				})
			}
		}
		l, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("cycle %d: Open: %v", cycle, err)
		}
		if got := int(l.LastSeq()); got != appended {
			t.Fatalf("cycle %d: writer resumed at seq %d, recovery said %d", cycle, got, appended)
		}

		acked := 0
		for i := appended; i < total; i++ {
			if _, err := l.AppendBatch(events[i : i+1]); err != nil {
				break
			}
			acked++
			if !torn && acked >= cleanStop {
				break
			}
		}
		// Crash: the log is abandoned, never Closed — whatever the kill
		// let through is all recovery gets.

		recovered, stats := scan(t, dir)
		if stats.TornTail {
			tears++
		}
		if int(stats.Records) != appended+acked {
			t.Fatalf("cycle %d: acked records lost: recovered %d, want %d (prev %d + acked %d)",
				cycle, stats.Records, appended+acked, appended, acked)
		}
		for i, ev := range recovered {
			if ev.ConnID != events[i].ConnID || ev.Seq != events[i].Seq {
				t.Fatalf("cycle %d: recovered record %d is the wrong event", cycle, i)
			}
		}
		appended = int(stats.Records)
	}
	if tears == 0 {
		t.Fatal("soak tore no record — not a soak")
	}

	// The full stream survived the gauntlet: the log must now replay
	// byte-identically to a run that never crashed.
	final, stats := scan(t, dir)
	if len(final) != total || stats.FirstSeq != 1 || stats.LastSeq != uint64(total) {
		t.Fatalf("final log: %d records over %d..%d, want %d over 1..%d",
			len(final), stats.FirstSeq, stats.LastSeq, total, total)
	}

	reports := func(drive func(a *core.Analyzer)) []byte {
		a := core.New(experiments.BenchLibrary(), core.Config{})
		drive(a)
		a.Close()
		b, err := json.Marshal(a.Reports())
		if err != nil {
			t.Fatalf("marshal reports: %v", err)
		}
		return b
	}
	fromWAL := reports(func(a *core.Analyzer) {
		res, err := replay.DriveWAL(a, dir, replay.WALDrive{})
		if err != nil {
			t.Fatalf("DriveWAL: %v", err)
		}
		if res.Events != total || res.Recovery.Quarantined != 0 {
			t.Fatalf("DriveWAL fed %d events (quarantined %d), want %d clean", res.Events, res.Recovery.Quarantined, total)
		}
	})
	uninterrupted := reports(func(a *core.Analyzer) {
		for i := range events {
			a.Ingest(events[i])
		}
	})
	if !bytes.Equal(fromWAL, uninterrupted) {
		t.Fatalf("reports after crash recovery differ from uninterrupted run (%d vs %d bytes)",
			len(fromWAL), len(uninterrupted))
	}
}

// TestCaptureSurvivesWriteError: one transient write error (a full
// disk that clears) must cost the analyzer one uncaptured event, not
// its durable plane until restart.
func TestCaptureSurvivesWriteError(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 50, Events: 600, Seed: 7})
	dir := t.TempDir()
	writes := 0
	l, err := wal.Open(wal.Options{Dir: dir, WrapWriter: func(w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			if writes++; writes == 3 {
				return 0, errors.New("injected: no space left on device")
			}
			return w.Write(p)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(experiments.BenchLibrary(), core.Config{})
	a.SetCapture(l)
	for i := range events {
		a.Ingest(events[i])
	}
	a.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("Close after a transient write error: %v", err)
	}
	if a.Stats.CaptureErrors != 1 {
		t.Fatalf("core.capture_errors = %d, want 1: the write error latched", a.Stats.CaptureErrors)
	}
	// Sequences stay dense — nothing of the failed write landed, so its
	// number was reused — and the ledger closes after reopen.
	if l.LastSeq() != uint64(len(events)-1) {
		t.Fatalf("LastSeq %d, want %d", l.LastSeq(), len(events)-1)
	}
	got, stats := scan(t, dir)
	if len(got) != len(events)-1 || stats.Quarantined != 0 || stats.Duplicates != 0 ||
		stats.FirstSeq != 1 || stats.LastSeq != uint64(len(events)-1) {
		t.Fatalf("recovered %d of %d captured: %+v", len(got), len(events)-1, stats)
	}
	for i, ev := range got {
		want := events[i]
		if i >= 2 {
			want = events[i+1] // the third event went uncaptured
		}
		if ev.ConnID != want.ConnID || ev.Seq != want.Seq {
			t.Fatalf("recovered record %d is the wrong event", i+1)
		}
	}
	l2, err := wal.Open(wal.Options{Dir: dir})
	if err != nil || l2.LastSeq() != l.LastSeq() {
		t.Fatalf("reopen: LastSeq %d, err %v; want %d", l2.LastSeq(), err, l.LastSeq())
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCaptureThroughAnalyzer wires a real wal.Log into the analyzer's
// capture hook and checks the durable log holds exactly the ingested
// stream, the cursor tracks processing, and a WAL replay of it through
// a second analyzer reproduces the reports byte-for-byte.
func TestCaptureThroughAnalyzer(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{
		Concurrency: 100, Events: 1500, FaultEvery: 101, Seed: 9,
	})
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	a := core.New(experiments.BenchLibrary(), core.Config{})
	a.SetCapture(l)
	for i := range events {
		a.Ingest(events[i])
	}
	a.Close()
	repsLive, _ := json.Marshal(a.Reports())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l.LastSeq() != uint64(len(events)) {
		t.Fatalf("captured %d records, want %d", l.LastSeq(), len(events))
	}
	if l.Cursor() != uint64(len(events)) {
		t.Fatalf("cursor %d, want %d", l.Cursor(), len(events))
	}
	if a.Stats.CaptureErrors != 0 {
		t.Fatalf("capture errors: %d", a.Stats.CaptureErrors)
	}

	got, stats := scan(t, dir)
	if len(got) != len(events) || stats.Quarantined != 0 {
		t.Fatalf("recovered %d (quarantined %d), want %d clean", len(got), stats.Quarantined, len(events))
	}

	b := core.New(experiments.BenchLibrary(), core.Config{})
	if _, err := replay.DriveWAL(b, dir, replay.WALDrive{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	repsReplayed, _ := json.Marshal(b.Reports())
	if !bytes.Equal(repsLive, repsReplayed) {
		t.Fatalf("WAL replay reports differ from live run")
	}
}

// TestCaptureBatchedOnce guards the capture bracket Ingest, IngestBatch
// and IngestRecord share: each event must be captured exactly once, in
// order, whichever public entry point it came through — a record passed
// through as it is, or its events appended by a capture that cannot take
// records — and the consumer cursor must end on the last record.
func TestCaptureBatchedOnce(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 50, Events: 600, Seed: 3})
	rec := seglog.StartBatch(nil)
	for i := range events[300:450] {
		rec = seglog.AppendEntry(rec, trace.AppendEvent(nil, &events[300+i]))
	}
	for _, records := range []bool{true, false} {
		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		a := core.New(experiments.BenchLibrary(), core.Config{})
		a.SetCapture(l)
		if !records {
			a.SetCapture(struct{ core.Capture }{l}) // AppendRecord hidden
		}
		if a.TakesRecords() != records {
			t.Fatalf("TakesRecords() = %v with records %v", a.TakesRecords(), records)
		}
		// Mix entry points: batches, single-event ingests, a hand-off
		// with its record and one without.
		a.IngestBatch(events[:256])
		for _, ev := range events[256:300] {
			a.Ingest(ev)
		}
		a.IngestRecord(events[300:450], bytes.Clone(rec))
		a.IngestRecord(events[450:], nil)
		a.Close()
		if l.Cursor() != uint64(len(events)) {
			t.Fatalf("records %v: cursor %d, want %d (the last record)", records, l.Cursor(), len(events))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, stats := scan(t, dir)
		if len(got) != len(events) || stats.Duplicates != 0 || stats.Quarantined != 0 {
			t.Fatalf("records %v: captured %d records (dups %d, quarantined %d), want %d exactly once",
				records, len(got), stats.Duplicates, stats.Quarantined, len(events))
		}
		for i := range got {
			if got[i].ConnID != events[i].ConnID {
				t.Fatalf("records %v: record %d out of order", records, i)
			}
		}
	}
}

// TestDriveWALBarrierSplitsBatch: boot recovery lifts report
// suppression at the durable cursor via the replay barrier. The split
// must land exactly on the cursor even when it falls mid-batch —
// everything at or below it ingested before OnBarrier fires, nothing
// after it — or reports triggered by the unprocessed suffix are
// silently swallowed while suppression is still on.
func TestDriveWALBarrierSplitsBatch(t *testing.T) {
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 50, Events: 600, Seed: 5})
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Barrier 100 falls inside the first 256-event ingest batch.
	a := core.New(experiments.BenchLibrary(), core.Config{})
	atBarrier := -1
	res, err := replay.DriveWAL(a, dir, replay.WALDrive{
		Barrier:   100,
		OnBarrier: func() { atBarrier = int(a.Stats.Events) },
	})
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 600 {
		t.Fatalf("replayed %d events, want 600", res.Events)
	}
	if atBarrier != 100 {
		t.Fatalf("OnBarrier fired with %d events ingested, want exactly the 100 at or below the barrier", atBarrier)
	}

	// A barrier at or past the end of the log is never crossed: the
	// caller keeps suppression until the replay returns.
	b := core.New(experiments.BenchLibrary(), core.Config{})
	fired := false
	if _, err := replay.DriveWAL(b, dir, replay.WALDrive{
		Barrier:   600,
		OnBarrier: func() { fired = true },
	}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if fired {
		t.Fatal("OnBarrier fired although no record lies past the barrier")
	}
}

// TestUpgradeInPlaceReplays: a log whose older segments hold one record
// per event, the layout logs had before batch records, and whose newer
// ones hold the batches a writer appends after resuming on it, replays
// through DriveWAL to the same reports as an uninterrupted run — also
// with the barrier on either side of the layout change.
func TestUpgradeInPlaceReplays(t *testing.T) {
	const total, old = 3000, 1200
	events := replay.Synthesize(replay.StreamConfig{Concurrency: 100, Events: total, FaultEvery: 97, Seed: 17})
	dir := t.TempDir()
	for first := 1; first <= old; first += old / 2 {
		var seg []byte
		for seq := first; seq < first+old/2; seq++ {
			seg = seglog.AppendRecord(seg, wal.KindEvent, uint64(seq), trace.AppendEvent(nil, &events[seq-1]))
		}
		if err := os.WriteFile(filepath.Join(dir, seglog.SegmentName("wal-", uint64(first))), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != old {
		t.Fatalf("resumed at %d, want %d", l.LastSeq(), old)
	}
	for lo := old; lo < total; lo += 128 {
		if _, err := l.AppendBatch(events[lo:min(lo+128, total)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reports := func(drive func(a *core.Analyzer)) []byte {
		a := core.New(experiments.BenchLibrary(), core.Config{})
		drive(a)
		a.Close()
		b, err := json.Marshal(a.Reports())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	uninterrupted := reports(func(a *core.Analyzer) { a.IngestBatch(events) })
	for _, barrier := range []uint64{0, old - 50, old + 50} {
		fromWAL := reports(func(a *core.Analyzer) {
			res, err := replay.DriveWAL(a, dir, replay.WALDrive{Barrier: barrier})
			if err != nil {
				t.Fatal(err)
			}
			if rs := res.Recovery; res.Events != total || rs.Quarantined != 0 || rs.Segments != 3 || rs.LastSeq != total {
				t.Fatalf("barrier %d: fed %d events, %+v; want %d over 3 segments, clean", barrier, res.Events, rs, total)
			}
		})
		if !bytes.Equal(fromWAL, uninterrupted) {
			t.Fatalf("barrier %d: reports of the upgraded log differ from an uninterrupted run (%d vs %d bytes)",
				barrier, len(fromWAL), len(uninterrupted))
		}
	}
}
