package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/trace"
)

// testEvents builds n distinguishable events.
func testEvents(n int) []trace.Event {
	base := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			Type:      trace.RESTRequest,
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			ConnID:    uint64(i + 1),
			Status:    200,
			WireBytes: 150 + i%100,
			SrcNode:   "nova-api-node",
			DstNode:   "nova-compute-node",
			OpID:      uint64(i/10 + 1),
		}
	}
	return evs
}

func segName(first uint64) string { return seglog.SegmentName(segPrefix, first) }

// binRecord appends the record the log writes (binary body, kind 'B').
func binRecord(buf []byte, seq uint64, ev trace.Event) []byte {
	return seglog.AppendRecord(buf, KindEvent, seq, trace.AppendEvent(nil, &ev))
}

// kindEventJSON is the kind older logs gave an encoding/json event body.
// No reader knows it any more; jsonRecord appends such a record,
// CRC-valid, for the tests that put one in front of a scan.
const kindEventJSON byte = 'E'

func jsonRecord(buf []byte, seq uint64, ev trace.Event) []byte {
	body, _ := json.Marshal(&ev)
	return seglog.AppendRecord(buf, kindEventJSON, seq, body)
}

// A record start: the envelope's magic.
const recMagic0, recMagic1, recHdrLen = 0xF5, 0x9E, seglog.HdrLen

// readAll scans the log and returns every intact record plus the stats.
func readAll(t *testing.T, dir string) ([]trace.Event, ReadStats) {
	t.Helper()
	r, err := OpenReader(dir)
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

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	evs := testEvents(100)
	for i := range evs {
		seq, err := l.AppendBatch(evs[i : i+1])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, stats := readAll(t, dir)
	if len(got) != len(evs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].ConnID != evs[i].ConnID || !got[i].Time.Equal(evs[i].Time) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], evs[i])
		}
	}
	if stats.Quarantined != 0 || stats.TornTail || stats.BytesSkipped != 0 {
		t.Fatalf("clean log shows damage: %+v", stats)
	}
	if stats.FirstSeq != 1 || stats.LastSeq != 100 {
		t.Fatalf("seq bounds %d..%d, want 1..100", stats.FirstSeq, stats.LastSeq)
	}
}

// TestAppendBatchRecoversAppendStream: however the same events are cut
// into appends — one at a time, seven at a time, all at once, or in one
// batch large enough to split at seglog.BatchBytes — recovery returns
// the same events under the same sequence numbers with the same ledger,
// and only the bytes the envelopes take differ.
func TestAppendBatchRecoversAppendStream(t *testing.T) {
	evs := testEvents(2000)
	for i := range evs {
		if i%3 == 0 { // bodies of 128 bytes and up take a two-byte length
			evs[i].ErrorText = fmt.Sprintf("%0*d", 100+i%200, i)
		}
	}
	var want ReadStats
	var wantBytes uint64
	for _, per := range []int{1, 7, 256, len(evs)} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(evs); lo += per {
			hi := min(lo+per, len(evs))
			if last, err := l.AppendBatch(evs[lo:hi]); err != nil || last != uint64(hi) {
				t.Fatalf("%d per append: AppendBatch: last=%d err=%v, want %d", per, last, err, hi)
			}
		}
		l.Close()
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			seq, ev, err := r.Next()
			if err != nil || seq != uint64(i+1) || ev != evs[i] {
				t.Fatalf("%d per append: event %d: seq %d, err %v, %+v", per, i+1, seq, err, ev)
			}
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("%d per append: past the last event: %v", per, err)
		}
		st := r.Stats()
		if per > 1 && st.BytesRead >= wantBytes {
			t.Fatalf("%d per append: %d bytes on disk, not fewer than one event a record's %d", per, st.BytesRead, wantBytes)
		}
		if per == 1 {
			wantBytes = st.BytesRead
		}
		st.BytesRead = 0
		if per == 1 {
			want = st
		}
		if st != want || st.Records != uint64(len(evs)) || st.Quarantined != 0 {
			t.Fatalf("%d per append: ledger %+v, want %+v", per, st, want)
		}
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, RetainBytes: 16 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	evs := testEvents(400)
	for i := range evs {
		if _, err := l.AppendBatch(evs[i : i+1]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Rotated == 0 {
		t.Fatalf("no rotations at 4KiB segments over %d events", len(evs))
	}
	if st.Retired == 0 {
		t.Fatalf("no segments retired at 16KiB budget (stats %+v)", st)
	}
	if st.Bytes > 16<<10+4<<10 {
		t.Fatalf("retained %d bytes, budget 16KiB (+1 active segment)", st.Bytes)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Retention drops history oldest-first: the surviving suffix must be
	// dense and end at the last append.
	got, stats := readAll(t, dir)
	if stats.LastSeq != 400 {
		t.Fatalf("LastSeq %d, want 400", stats.LastSeq)
	}
	if stats.FirstSeq <= 1 {
		t.Fatalf("FirstSeq %d: retention dropped nothing?", stats.FirstSeq)
	}
	if uint64(len(got)) != stats.LastSeq-stats.FirstSeq+1 {
		t.Fatalf("suffix not dense: %d records over %d..%d", len(got), stats.FirstSeq, stats.LastSeq)
	}
	if stats.Quarantined != 0 {
		t.Fatalf("retention must not look like loss: %+v", stats)
	}
}

func TestFsyncPolicies(t *testing.T) {
	evs := testEvents(50)
	for _, tc := range []struct {
		fsync Fsync
		check func(t *testing.T, st Stats)
	}{
		{FsyncNone, func(t *testing.T, st Stats) {
			// Only the Close barrier syncs.
			if st.Synced != 1 {
				t.Fatalf("FsyncNone synced %d times mid-run, want only the close sync", st.Synced)
			}
		}},
		{FsyncEvery, func(t *testing.T, st Stats) {
			if st.Synced < 50 {
				t.Fatalf("FsyncEvery synced %d times for 50 appends", st.Synced)
			}
		}},
		{FsyncInterval, func(t *testing.T, st Stats) {
			if st.Synced == 0 || st.Synced > 51 {
				t.Fatalf("FsyncInterval synced %d times", st.Synced)
			}
		}},
	} {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Fsync: tc.fsync, FsyncInterval: time.Nanosecond})
		if err != nil {
			t.Fatalf("Open(%v): %v", tc.fsync, err)
		}
		for i := range evs {
			if _, err := l.AppendBatch(evs[i : i+1]); err != nil {
				t.Fatalf("Append(%v): %v", tc.fsync, err)
			}
		}
		l.Close()
		if tc.fsync != FsyncInterval {
			tc.check(t, l.Stats())
		}
		if got, _ := readAll(t, dir); len(got) != 50 {
			t.Fatalf("fsync=%v: recovered %d/50", tc.fsync, len(got))
		}
	}
}

func TestParseFsync(t *testing.T) {
	for name, want := range map[string]Fsync{"none": FsyncNone, "interval": FsyncInterval, "every": FsyncEvery} {
		got, err := ParseFsync(name)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatalf("ParseFsync accepted garbage")
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	evs := testEvents(30)

	l, _ := Open(Options{Dir: dir})
	for i := range evs[:10] {
		l.AppendBatch(evs[i : i+1])
	}
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.LastSeq() != 10 {
		t.Fatalf("reopened LastSeq %d, want 10", l2.LastSeq())
	}
	for i := 10; i < len(evs); i++ {
		l2.AppendBatch(evs[i : i+1])
	}
	l2.Close()

	got, stats := readAll(t, dir)
	if len(got) != 30 || stats.Quarantined != 0 {
		t.Fatalf("recovered %d records, quarantined %d; want 30, 0", len(got), stats.Quarantined)
	}
	// Reopen starts a fresh segment: the old tail is never appended to.
	if stats.Segments != 2 {
		t.Fatalf("segments %d, want 2 (reopen must start fresh)", stats.Segments)
	}
}

func TestRecoveryTruncatedTail(t *testing.T) {
	for cut := 1; cut <= 25; cut += 6 {
		dir := t.TempDir()
		l, _ := Open(Options{Dir: dir})
		evs := testEvents(20)
		for i := range evs {
			l.AppendBatch(evs[i : i+1])
		}
		l.Close()

		// Tear the final record: drop `cut` bytes off the segment.
		path := filepath.Join(dir, segName(1))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		got, stats := readAll(t, dir)
		if len(got) != 19 {
			t.Fatalf("cut=%d: recovered %d records, want 19", cut, len(got))
		}
		if !stats.TornTail || stats.Quarantined != 1 {
			t.Fatalf("cut=%d: torn tail not quarantined: %+v", cut, stats)
		}
		if stats.Records+stats.Quarantined != 20 {
			t.Fatalf("cut=%d: recovered+quarantined = %d+%d, want 20 (written)", cut, stats.Records, stats.Quarantined)
		}
	}
}

func TestRecoveryCorruptMidRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	evs := testEvents(20)
	for i := range evs {
		l.AppendBatch(evs[i : i+1])
	}
	l.Close()

	// Flip one byte inside record 10's body: its CRC fails, the reader
	// resyncs at record 11, and the loss shows up as a sequence gap.
	path := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(path)
	recLen := len(b) / 20 // records here are near-identical length; land inside the middle
	b[recLen*9+recLen/2] ^= 0xff
	os.WriteFile(path, b, 0o644)

	got, stats := readAll(t, dir)
	if stats.Quarantined != 1 {
		t.Fatalf("corrupt record not quarantined exactly once: %+v", stats)
	}
	if stats.Records+stats.Quarantined != 20 {
		t.Fatalf("recovered+quarantined = %d+%d, want 20", stats.Records, stats.Quarantined)
	}
	if stats.BytesSkipped == 0 || stats.TornTail {
		t.Fatalf("mid-record corruption misattributed: %+v", stats)
	}
	if len(got) != 19 {
		t.Fatalf("recovered %d records, want 19", len(got))
	}
}

func TestRecoveryGarbageBetweenRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	evs := testEvents(5)
	for i := range evs {
		l.AppendBatch(evs[i : i+1])
	}
	l.Close()

	// Splice garbage (including a fake magic prefix) between records:
	// the reader must skip it without losing either neighbor.
	path := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(path)
	var out []byte
	out = append(out, b...)
	junk := []byte{recMagic0, recMagic1, 'X', 0xde, 0xad, 0xbe, 0xef, recMagic0}
	out = append(out[:len(b)/2:len(b)/2], append(junk, b[len(b)/2:]...)...)
	os.WriteFile(path, out, 0o644)

	got, stats := readAll(t, dir)
	// The splice point may also land inside a record, tearing it; what
	// is never acceptable is silent loss or a panic.
	if stats.Records+stats.Quarantined != 5 {
		t.Fatalf("recovered+quarantined = %d+%d, want 5", stats.Records, stats.Quarantined)
	}
	if len(got) == 0 || stats.BytesSkipped == 0 {
		t.Fatalf("garbage splice handled wrong: %d records, %+v", len(got), stats)
	}
}

func TestCursorPersistsAtomically(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	const n = cursorEvery + 10
	evs := testEvents(n)
	for i := range evs {
		seq, _ := l.AppendBatch(evs[i : i+1])
		l.MarkProcessed(seq)
	}
	if got := LoadCursor(dir); got != cursorEvery {
		t.Fatalf("cursor persisted at %d before Close, want %d", got, cursorEvery)
	}
	l.Close()

	l2, _ := Open(Options{Dir: dir})
	if l2.Cursor() != n {
		t.Fatalf("cursor %d after restart, want %d", l2.Cursor(), n)
	}
	l2.Close()

	if err := os.Remove(filepath.Join(dir, cursorFile)); err != nil {
		t.Fatal(err)
	}
	l3, _ := Open(Options{Dir: dir})
	if l3.Cursor() != 0 {
		t.Fatalf("cursor %d after removal, want 0", l3.Cursor())
	}
	l3.Close()
}

func TestCursorClampedToDurableLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	evs := testEvents(5)
	for i := range evs {
		seq, _ := l.AppendBatch(evs[i : i+1])
		l.MarkProcessed(seq)
	}
	l.Close()

	// Tear the last record after its processing was already recorded:
	// the cursor now points past the durable log and must clamp.
	path := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-10], 0o644)

	l2, _ := Open(Options{Dir: dir})
	if l2.Cursor() != 4 || l2.LastSeq() != 4 {
		t.Fatalf("cursor/lastSeq = %d/%d after torn tail, want 4/4", l2.Cursor(), l2.LastSeq())
	}
	l2.Close()
}

// TestSegmentLayout pins the format: each append is one seglog batch
// record numbered from its first event — a four-byte count, then each
// event's trace binary body behind a uvarint length — built here by
// hand, so a change to either side shows.
func TestSegmentLayout(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	evs := testEvents(4)
	l.AppendBatch(evs[:3])
	l.AppendBatch(evs[3:4])
	l.Close()
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	record := func(buf []byte, seq uint64, evs []trace.Event) []byte {
		body := binary.BigEndian.AppendUint32(nil, uint32(len(evs)))
		for i := range evs {
			ev := trace.AppendEvent(nil, &evs[i])
			body = append(binary.AppendUvarint(body, uint64(len(ev))), ev...)
		}
		return seglog.AppendRecord(buf, seglog.KindBatch, seq, body)
	}
	want := record(record(nil, 1, evs[:3]), 4, evs[3:])
	if !bytes.Equal(seg, want) {
		t.Fatalf("WAL segment and the batch layout differ:\n%x\n%x", seg, want)
	}
}

// TestPerEventLayoutRecovers: testdata/per-event-records.seg is a segment
// of the layout logs had before batch records — testEvents(12) appended
// 1, 4 and 7 at a time, one record per event. It recovers to the same
// events, sequence numbers and ledger, a writer resumes after it, and
// the log it leaves — one segment of each layout, as after an upgrade in
// place — reads back dense.
func TestPerEventLayoutRecovers(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "per-event-records.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	evs := testEvents(20)
	got, st := readAll(t, dir)
	if !slices.Equal(got, evs[:12]) {
		t.Fatalf("recovered %+v, want testEvents(12)", got)
	}
	if want := (ReadStats{Segments: 1, Records: 12, FirstSeq: 1, LastSeq: 12, BytesRead: uint64(len(fixture))}); st != want {
		t.Fatalf("ledger %+v, want %+v", st, want)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 12 {
		t.Fatalf("resumed at %d, want 12", l.LastSeq())
	}
	if last, err := l.AppendBatch(evs[12:]); err != nil || last != 20 {
		t.Fatalf("AppendBatch after the upgrade: last %d, err %v", last, err)
	}
	l.Close()
	got, st = readAll(t, dir)
	if !slices.Equal(got, evs) || st.Segments != 2 || st.FirstSeq != 1 || st.LastSeq != 20 ||
		st.Quarantined != 0 || st.BytesSkipped != 0 || st.Duplicates != 0 {
		t.Fatalf("after the upgrade: %d events, %+v; want testEvents(20) over two segments, clean", len(got), st)
	}
}

func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	got, stats := readAll(t, dir)
	if len(got) != 0 || stats.Quarantined != 0 || stats.Segments != 0 {
		t.Fatalf("empty dir scan: %d records, %+v", len(got), stats)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if l.LastSeq() != 0 {
		t.Fatalf("LastSeq %d on empty log", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close empty: %v", err)
	}
}

// TestReopenAfterTornFirstAppend reopens a log whose newest segment
// holds zero intact records — a crash tore the very first append after
// a rotation (or the first append ever). Open must drop the recordless
// segment so the next append can recreate its name; before the fix the
// O_EXCL create collided with the torn file and every Append failed
// with EEXIST forever.
func TestReopenAfterTornFirstAppend(t *testing.T) {
	t.Run("after-rotation", func(t *testing.T) {
		dir := t.TempDir()
		evs := testEvents(12)
		l, _ := Open(Options{Dir: dir})
		for i := range evs[:10] {
			l.AppendBatch(evs[i : i+1])
		}
		l.Close()
		// Simulate the crash: the writer rotated to wal-11 and died with
		// only a torn partial of record 11 on disk.
		torn := filepath.Join(dir, segName(11))
		if err := os.WriteFile(torn, []byte{recMagic0, recMagic1, KindEvent, 0xde, 0xad}, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen over torn segment: %v", err)
		}
		if l2.LastSeq() != 10 {
			t.Fatalf("reopened LastSeq %d, want 10", l2.LastSeq())
		}
		for i := 10; i < len(evs); i++ {
			if _, err := l2.AppendBatch(evs[i : i+1]); err != nil {
				t.Fatalf("Append %d after reopen: %v", i-10, err)
			}
		}
		l2.Close()

		got, stats := readAll(t, dir)
		if len(got) != 12 || stats.Quarantined != 0 || stats.Duplicates != 0 {
			t.Fatalf("recovered %d records (quarantined %d, dups %d), want 12 clean",
				len(got), stats.Quarantined, stats.Duplicates)
		}
		if stats.FirstSeq != 1 || stats.LastSeq != 12 {
			t.Fatalf("sequence range %d..%d, want dense 1..12", stats.FirstSeq, stats.LastSeq)
		}
	})
	t.Run("first-ever-append", func(t *testing.T) {
		dir := t.TempDir()
		torn := filepath.Join(dir, segName(1))
		if err := os.WriteFile(torn, []byte{recMagic0, recMagic1}, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("open over torn first segment: %v", err)
		}
		if l.LastSeq() != 0 {
			t.Fatalf("LastSeq %d, want 0", l.LastSeq())
		}
		if seq, err := l.AppendBatch(testEvents(1)); err != nil || seq != 1 {
			t.Fatalf("Append after reopen: seq %d, err %v (want 1, nil)", seq, err)
		}
		l.Close()
		got, stats := readAll(t, dir)
		if len(got) != 1 || stats.Quarantined != 0 {
			t.Fatalf("recovered %d records (quarantined %d), want 1 clean", len(got), stats.Quarantined)
		}
	})
}

// handOff lays evs out as a receiver's hand-off carries them: their
// binary bodies as one unsealed batch record, its header and count room
// filled with bytes AppendRecord must overwrite.
func handOff(evs []trace.Event) []byte {
	rec := seglog.StartBatch(nil)
	for i := range evs {
		rec = seglog.AppendEntry(rec, trace.AppendEvent(nil, &evs[i]))
	}
	copy(rec, bytes.Repeat([]byte{0xaa}, seglog.HdrLen+4))
	return rec
}

// TestAppendRecordMatchesAppendBatch: the same hand-offs of canonically
// encoded events, written as records or encoded again by AppendBatch,
// give byte-identical segment files — the same records under the same
// sequence numbers, rotated at the same points — and the same
// accounting, and the reader recovers the events from either.
func TestAppendRecordMatchesAppendBatch(t *testing.T) {
	evs := testEvents(2000)
	for i := range evs {
		if i%3 == 0 { // bodies of 128 bytes and up take a two-byte length
			evs[i].ErrorText = fmt.Sprintf("%0*d", 100+i%200, i)
		}
	}
	for _, per := range []int{1, 7, 128} {
		var (
			dirs    = [2]string{t.TempDir(), t.TempDir()}
			stats   [2]Stats
			records [2]uint64
		)
		for path, dir := range dirs {
			l, err := Open(Options{Dir: dir, SegmentBytes: 32 << 10, Fsync: FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			records0 := mRecords.Value()
			for lo := 0; lo < len(evs); lo += per {
				hi := min(lo+per, len(evs))
				var last uint64
				if path == 0 {
					last, err = l.AppendBatch(evs[lo:hi])
				} else {
					last, err = l.AppendRecord(handOff(evs[lo:hi]), hi-lo)
				}
				if err != nil || last != uint64(hi) {
					t.Fatalf("%d per append, path %d: last=%d err=%v, want %d", per, path, last, err, hi)
				}
			}
			stats[path], records[path] = l.Stats(), mRecords.Value()-records0
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if stats[0] != stats[1] || records[0] != records[1] {
			t.Fatalf("%d per append: AppendBatch %+v in %d records, AppendRecord %+v in %d",
				per, stats[0], records[0], stats[1], records[1])
		}
		files, err := os.ReadDir(dirs[0])
		if err != nil || len(files) < 2 {
			t.Fatalf("%d per append: %d segments (%v), want the log rotated", per, len(files), err)
		}
		for _, f := range files {
			a, errA := os.ReadFile(filepath.Join(dirs[0], f.Name()))
			b, errB := os.ReadFile(filepath.Join(dirs[1], f.Name()))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("%d per append: %s differs (%v, %v)", per, f.Name(), errA, errB)
			}
		}
		for _, dir := range dirs {
			got, st := readAll(t, dir)
			if !slices.Equal(got, evs) || st.Quarantined != 0 {
				t.Fatalf("%d per append: recovered %d of %d events, %d quarantined", per, len(got), len(evs), st.Quarantined)
			}
		}
	}
}

// TestAppendRejectsOversizedRecord: the reader skips any length prefix
// over MaxRecord, so an oversized body must be refused at append time —
// acking it would make it durable but guaranteed-quarantined.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	evs := testEvents(3)
	if _, err := l.AppendBatch(evs[0:1]); err != nil {
		t.Fatal(err)
	}
	huge := evs[1]
	huge.ErrorText = string(bytes.Repeat([]byte{'x'}, MaxRecord))
	if _, err := l.AppendBatch([]trace.Event{huge}); err == nil {
		t.Fatal("Append acked a record the reader is guaranteed to quarantine")
	}
	if _, err := l.AppendRecord(handOff([]trace.Event{huge}), 1); err == nil {
		t.Fatal("AppendRecord acked a record the reader is guaranteed to quarantine")
	}
	if l.LastSeq() != 1 {
		t.Fatalf("LastSeq %d after rejected append, want 1", l.LastSeq())
	}
	// A batch containing one oversized event is refused whole, before
	// any byte of it is written.
	if _, err := l.AppendBatch([]trace.Event{evs[2], huge}); err == nil {
		t.Fatal("AppendBatch acked a batch containing an unrecoverable record")
	}
	if seq, err := l.AppendBatch(evs[2:3]); err != nil || seq != 2 {
		t.Fatalf("Append after rejection: seq %d, err %v (want 2, nil)", seq, err)
	}
	l.Close()
	got, stats := readAll(t, dir)
	if len(got) != 2 || stats.Quarantined != 0 || stats.LastSeq != 2 {
		t.Fatalf("recovered %d records (quarantined %d, last %d), want 2 clean dense",
			len(got), stats.Quarantined, stats.LastSeq)
	}
}

// TestLegacyJSONRecordsAreSkipped: kind 'E', the JSON body older logs
// wrote, is an unknown kind now. testdata/json-records.seg is such a log
// (testEvents(8) as one batch, every record CRC-valid): a scan decodes
// none of it, counts every byte as skipped, resynchronises on the binary
// record that follows, and closes the ledger — recovered + quarantined
// == written, the quarantined ones being the sequence numbers the
// skipped records carried.
func TestLegacyJSONRecordsAreSkipped(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "json-records.seg"))
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(10)
	seg := binRecord(nil, 1, evs[0])
	legacy := jsonRecord(nil, 2, evs[1])
	seg = append(seg, legacy...)
	seg = binRecord(seg, 3, evs[2])
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := readAll(t, dir)
	if len(got) != 2 || got[0] != evs[0] || got[1] != evs[2] {
		t.Fatalf("recovered %+v, want records 1 and 3", got)
	}
	if stats.Records != 2 || stats.Quarantined != 1 || stats.BytesSkipped != uint64(len(legacy)) {
		t.Fatalf("stats %+v, want 2 recovered + 1 quarantined with the %d bytes of the 'E' record skipped", stats, len(legacy))
	}

	// A whole segment of them, then the binary segment a writer adds.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(9)), binRecord(binRecord(nil, 9, evs[8]), 10, evs[9]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats = readAll(t, dir)
	if len(got) != 2 || got[0] != evs[8] || got[1] != evs[9] {
		t.Fatalf("recovered %+v, want records 9 and 10", got)
	}
	if stats.BytesSkipped != uint64(len(fixture)) || stats.FirstSeq != 9 || stats.LastSeq != 10 {
		t.Fatalf("stats %+v, want all %d fixture bytes skipped and records 9..10 returned", stats, len(fixture))
	}
}

// TestOpenTailScanReusesBuffer: reopening a log scans its last segment
// for the last intact record; that scan must reuse one body buffer, not
// allocate one per record.
func TestOpenTailScanReusesBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const records = 10000
	if _, err := l.AppendBatch(testEvents(records)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	allocs := testing.AllocsPerRun(3, func() {
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if l.LastSeq() != records {
			t.Fatalf("LastSeq %d, want %d", l.LastSeq(), records)
		}
	})
	if allocs > 100 {
		t.Fatalf("reopening a %d-record log made %.0f allocations: the tail scan allocates per record", records, allocs)
	}
}

// TestV1RecordsAreQuarantined: a record whose body is the version-1
// event encoding (the agent package's golden frame of it) is CRC-intact
// and undecodable — quarantined and counted, its neighbours recovered,
// recovered + quarantined == written.
func TestV1RecordsAreQuarantined(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "agent", "testdata", "event_frame_binary_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(3)
	seg := binRecord(nil, 1, evs[0])
	seg = seglog.AppendRecord(seg, KindEvent, 2, v1[recHdrLen:])
	seg = binRecord(seg, 3, evs[2])
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := readAll(t, dir)
	if stats.Records != 2 || stats.Quarantined != 1 || len(got) != 2 || got[0] != evs[0] || got[1] != evs[2] {
		t.Fatalf("recovered %d (%d returned) + quarantined %d of 3 written with one v1 record", stats.Records, len(got), stats.Quarantined)
	}
}

// TestReaderAllocatesOnlyIdentifiers: recovery decodes every record into
// the reader's own event, so a scan of the tape's shape — each event from
// its own ephemeral port — costs the two identifier strings per record
// and nothing when a record has none.
func TestReaderAllocatesOnlyIdentifiers(t *testing.T) {
	const records = 10000
	for _, tc := range []struct {
		name string
		ids  bool
		max  float64
	}{{"ids", true, 2}, {"no-ids", false, 0}} {
		evs := testEvents(records)
		for i := range evs {
			evs[i].API = trace.RESTAPI(trace.SvcNova, "GET", "/v2.1/servers/{id}")
			evs[i].SrcAddr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), uint16(32768+i))
			evs[i].DstAddr = netip.MustParseAddrPort("10.0.0.3:8774")
			if tc.ids {
				evs[i].MsgID, evs[i].CorrID = fmt.Sprintf("msg-%d", i), fmt.Sprintf("req-%d", i)
			}
		}
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
		l.Close()
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		next := func() {
			seq, ev, err := r.Next()
			if err != nil || seq != uint64(i+1) || ev != evs[i] {
				t.Fatalf("%s: record %d: seq %d, err %v, event %+v", tc.name, i+1, seq, err, ev)
			}
			i++
		}
		next() // the scan's one-time costs: segment open, body buffer, intern table
		if got := testing.AllocsPerRun(records-2, next); got > tc.max {
			t.Errorf("%s: %v allocations per recovered record, want <= %v", tc.name, got, tc.max)
		}
		r.Close()
	}
}
