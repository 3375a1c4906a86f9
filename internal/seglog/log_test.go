package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gretel/internal/chaos"
	"gretel/internal/trace"
)

// codec is a record shape: the segment log is the same under any, so
// every lifecycle test runs once per codec.
type codec struct {
	name, prefix, kinds string
	kind                byte
	batch               int // most records one Append carries
	body                func(i int) []byte
	check               func(kind byte, body []byte, i int) error
}

var codecs = []codec{
	{
		// The WAL: binary event records, appended in batches as the
		// analyzer's ingest hands them over; the legacy JSON kind accepted.
		name: "events", prefix: "wal-", kinds: "BE", kind: 'B', batch: 8, body: eventBody, check: checkEvent,
	},
	{
		// The WAL as it writes now: each append one batch record of event
		// bodies, in a log that still reads the one-event records above.
		name: "batches", prefix: "wal-", kinds: "BR", kind: KindBatch, batch: 8, body: eventBody,
		check: func(kind byte, body []byte, i int) error {
			if kind == KindBatch {
				kind = trace.BodyBinary
			}
			return checkEvent(kind, body, i)
		},
	},
	{
		// A second kind and prefix, one text batch per record and one
		// record per write: beside the WAL's, it proves the log never
		// confuses two kinds.
		name: "points", prefix: "points-", kinds: "P", kind: 'P', batch: 1,
		body: func(i int) []byte {
			return []byte(fmt.Sprintf("core.events,host=a delta=%di %d\nwal.appended,host=a delta=1i %d\n", i, i, i))
		},
		check: func(_ byte, body []byte, i int) error {
			if want := fmt.Sprintf("core.events,host=a delta=%di ", i); !bytes.HasPrefix(body, []byte(want)) {
				return fmt.Errorf("batch %q, want prefix %q", body, want)
			}
			return nil
		},
	},
}

// checkEvent decodes an event body and checks it is event i.
func checkEvent(kind byte, body []byte, i int) error {
	var (
		dec trace.Decoder
		ev  trace.Event
	)
	if err := dec.Decode(kind, body, &ev); err != nil {
		return err
	}
	if ev.ConnID != uint64(i) {
		return fmt.Errorf("decoded event %d, want %d", ev.ConnID, i)
	}
	return nil
}

func (c codec) options(dir string) Options {
	return Options{Dir: dir, Prefix: c.prefix, Kinds: c.kinds, SegmentBytes: 1 << 20, SyncInterval: -1, RetainBytes: -1}
}

// appendN appends records first..first+n-1 (record i carries sequence i)
// with one write: n records, or under the batch kind one record of n
// entries.
func (c codec) appendN(l *Log, first, n int) (int, error) {
	if c.kind == KindBatch {
		return l.Append(batch(nil, uint64(first), n, c.body), n)
	}
	var recs []byte
	for i := first; i < first+n; i++ {
		recs = record(recs, c.kind, uint64(i), c.body(i))
	}
	return l.Append(recs, n)
}

// scan reads the whole directory back, checking every record against the
// codec, and returns the sequences recovered and the ledger.
func (c codec) scan(t *testing.T, dir string) ([]uint64, ScanStats) {
	t.Helper()
	sc, err := OpenScanner(dir, c.prefix, c.kinds)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var seqs []uint64
	for {
		kind, seq, body, err := sc.Next()
		if err == io.EOF {
			return seqs, sc.Stats()
		}
		if err != nil {
			t.Fatalf("Next returned a non-EOF error: %v", err)
		}
		if err := c.check(kind, body, int(seq)); err != nil {
			t.Fatalf("record %d: %v", seq, err)
		}
		seqs = append(seqs, seq)
	}
}

func mustOpen(t *testing.T, o Options) *Log {
	t.Helper()
	l, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// failing is a segment writer that, when armed, lets through the first
// `through` bytes of the next write and fails it — once.
type failing struct {
	w       io.Writer
	armed   *bool
	through *int
}

func (f failing) Write(p []byte) (int, error) {
	if !*f.armed {
		return f.w.Write(p)
	}
	*f.armed = false
	n, _ := f.w.Write(p[:min(*f.through, len(p))])
	return n, errors.New("injected: no space left on device")
}

// TestWriteErrorAbandonsSegment: an I/O error costs the append that met
// it, never the log. The segment is abandoned — kept if it holds acked
// records, unlinked if not — the next append starts a fresh one, and
// whatever the failed write left behind neither collides with a segment
// name nor shadows an acked record.
func TestWriteErrorAbandonsSegment(t *testing.T) {
	c := codecs[0]
	recLen := len(record(nil, c.kind, 1, c.body(1)))
	for _, tc := range []struct {
		name        string
		through     int      // bytes of the failed write that reach the file
		lastSeq     uint64   // after the failed append and two good ones
		want        []uint64 // sequences recovery returns
		quarantined uint64
	}{
		// Nothing landed: the sequence is reused and the log stays dense.
		{"no ink", 0, 4, []uint64{1, 2, 3, 4}, 0},
		// A torn record landed: its number is skipped and shows as lost.
		{"torn record", recLen / 2, 5, []uint64{1, 2, 4, 5}, 1},
		// The whole record landed before the error: it is recovered under
		// its own number, and the acked record after it under the next —
		// reusing the number would have dropped that one as a duplicate.
		{"whole record", recLen, 5, []uint64{1, 2, 3, 4, 5}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var armed bool
			o := c.options(dir)
			o.WrapWriter = func(w io.Writer) io.Writer { return failing{w, &armed, &tc.through} }
			l := mustOpen(t, o)
			if _, err := c.appendN(l, 1, 2); err != nil {
				t.Fatal(err)
			}
			armed = true
			if acked, err := c.appendN(l, 3, 1); err == nil || acked != 0 {
				t.Fatalf("append through a failing writer: acked=%d err=%v", acked, err)
			}
			for i := 0; i < 2; i++ {
				next := int(l.LastSeq()) + 1
				if _, err := c.appendN(l, next, 1); err != nil {
					t.Fatalf("append after the error: %v (the error latched)", err)
				}
			}
			if l.LastSeq() != tc.lastSeq {
				t.Fatalf("LastSeq %d, want %d", l.LastSeq(), tc.lastSeq)
			}
			if st := l.Stats(); st.Abandoned != 1 || st.Segments != 2 {
				t.Fatalf("stats %+v, want 1 abandoned, 2 segments", st)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// The torn-record case reads records 4 and 5 under the bodies
			// appendN gave them, which were built for LastSeq()+1.
			seqs, st := c.scan(t, dir)
			if fmt.Sprint(seqs) != fmt.Sprint(tc.want) || st.Quarantined != tc.quarantined || st.Duplicates != 0 {
				t.Fatalf("recovered %v (quarantined %d, duplicates %d), want %v (quarantined %d)",
					seqs, st.Quarantined, st.Duplicates, tc.want, tc.quarantined)
			}
			if l2 := mustOpen(t, c.options(dir)); l2.LastSeq() != tc.lastSeq {
				t.Fatalf("reopened at %d, want %d", l2.LastSeq(), tc.lastSeq)
			}
		})
	}

	t.Run("first write of a segment", func(t *testing.T) {
		// A segment that never held an acked record is unlinked, torn ink
		// and all: its name is the next segment's.
		dir := t.TempDir()
		armed, through := true, recLen/2
		o := c.options(dir)
		o.WrapWriter = func(w io.Writer) io.Writer { return failing{w, &armed, &through} }
		l := mustOpen(t, o)
		if _, err := c.appendN(l, 1, 1); err == nil {
			t.Fatal("append through a failing writer succeeded")
		}
		if names := segmentFiles(t, dir); len(names) != 0 {
			t.Fatalf("recordless segment left behind: %v", names)
		}
		if _, err := c.appendN(l, 1, 1); err != nil {
			t.Fatalf("append after the error: %v", err)
		}
		l.Close()
		if seqs, st := c.scan(t, dir); len(seqs) != 1 || st.BytesSkipped != 0 {
			t.Fatalf("recovered %v, skipped %d bytes; want record 1 alone", seqs, st.BytesSkipped)
		}
	})
}

// TestOpenFailsOnUnopenableSegment: resuming reads segments newest
// first; one it cannot read is an error — not skipped, and above all not
// unlinked as recordless, since it may hold the newest intact records. A
// symlink loop cannot be opened whatever the test's privileges.
func TestOpenFailsOnUnopenableSegment(t *testing.T) {
	for _, c := range codecs {
		dir := t.TempDir()
		l := mustOpen(t, c.options(dir))
		if _, err := c.appendN(l, 1, 1); err != nil {
			t.Fatal(err)
		}
		l.Close()
		loop := filepath.Join(dir, SegmentName(c.prefix, 2))
		if err := os.Symlink(loop, loop); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(c.options(dir)); err == nil {
			t.Errorf("%s: Open succeeded over a segment it could not read", c.name)
		}
		if _, err := os.Lstat(loop); err != nil {
			t.Fatalf("%s: Open unlinked a segment it never read: %v", c.name, err)
		}
		// The scan, which must never abort, counts it and moves on.
		if seqs, st := c.scan(t, dir); len(seqs) != 1 || st.BytesSkipped == 0 {
			t.Fatalf("%s: scan over an unreadable segment: %v, %+v", c.name, seqs, st)
		}
	}
}

// TestRotation: the size rule uses the exact bytes of the write at hand,
// a rotation is a no-op on nothing, and retention holds the byte budget
// by dropping closed segments oldest-first.
func TestRotation(t *testing.T) {
	c := codecs[2]
	recLen := int64(len(record(nil, c.kind, 1, c.body(1))))
	dir := t.TempDir()
	o := c.options(dir)
	o.SegmentBytes, o.RetainBytes = 2*recLen, 4*recLen
	l := mustOpen(t, o)
	if err := l.rotate(); err != nil || l.Stats().Rotated != 0 {
		t.Fatalf("rotate with no active segment: err=%v rotated=%d", err, l.Stats().Rotated)
	}
	for i := 1; i <= 9; i++ { // single-digit records are all recLen long
		if _, err := c.appendN(l, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Two records fit a segment exactly; a third would not.
	if st := l.Stats(); st.Rotated != 4 || st.Segments != 3 || st.Retired != 2 || st.Bytes != 5*recLen {
		t.Fatalf("stats %+v, want 4 rotations, 3 segments left of 5, 5 records' bytes", st)
	}
	if err := l.rotate(); err != nil || l.Stats().Rotated != 5 {
		t.Fatalf("explicit rotate: err=%v rotated=%d", err, l.Stats().Rotated)
	}
	if err := l.rotate(); err != nil || l.Stats().Rotated != 5 {
		t.Fatalf("rotate twice over: err=%v rotated=%d, want a no-op", err, l.Stats().Rotated)
	}
	l.Close()
	// That rotation retired a third segment. Retention is not loss: the
	// surviving suffix is dense.
	seqs, st := c.scan(t, dir)
	if st.FirstSeq != 7 || st.LastSeq != 9 || len(seqs) != 3 || st.Quarantined != 0 {
		t.Fatalf("after retention: %v, %+v", seqs, st)
	}
}

// FuzzSegmentRecovery hands arbitrary bytes to the scanner as a segment
// file, under each codec's kinds. Under any input the scan must not
// panic or loop, must return sequences in increasing order, must return
// only what a CRC-valid record in the input holds — never an entry of a
// batch that failed its CRC or whose count or lengths lie — and must
// keep its books: every input byte is in a record read or counted as
// skipped.
func FuzzSegmentRecovery(f *testing.F) {
	var legacy, events, mixed, points []byte
	for i := 1; i <= 4; i++ {
		json := []byte(fmt.Sprintf(`{"seq":%d,"conn":%d,"status":200}`, i, i))
		legacy = record(legacy, 'E', uint64(i), json)
		events = record(events, 'B', uint64(i), eventBody(i))
		if i%2 == 0 {
			mixed = record(mixed, 'E', uint64(i), json)
		} else {
			mixed = record(mixed, 'B', uint64(i), eventBody(i))
		}
		points = record(points, 'P', uint64(i), codecs[2].body(i))
	}
	// Batch records: a healthy pair, then the first one torn inside its
	// count, inside the two-byte length prefix of a long entry, and
	// inside that entry; and resealed, CRC-valid, around a count or a
	// length that lies, with the healthy second batch behind it.
	batches := batch(batch(nil, 1, 4, eventBody), 5, 3, eventBody)
	long := batch(nil, 1, 2, func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 300) })
	countAt := HdrLen
	lenAt := countAt + countLen
	second := batch(nil, 5, 3, eventBody)
	lie := func(edit func(rec []byte)) []byte {
		rec := batch(nil, 1, 4, eventBody)
		edit(rec)
		Seal(rec, KindBatch, 1)
		return append(rec, second...)
	}
	for _, healthy := range [][]byte{legacy, events, points, batches} {
		f.Add(healthy)
		f.Add(healthy[:len(healthy)-7])
		f.Add(append([]byte{magic0, magic1, healthy[2], 0xff}, healthy...))
	}
	f.Add(long[:countAt+2])
	f.Add(long[:lenAt+1])
	f.Add(long[:lenAt+2+100])
	f.Add(lie(func(rec []byte) { rec[countAt+3]++ }))
	f.Add(lie(func(rec []byte) { rec[countAt+3]-- }))
	f.Add(lie(func(rec []byte) { rec[lenAt]++ }))
	f.Add(lie(func(rec []byte) { rec[lenAt]-- }))
	f.Add(append(append([]byte{}, events...), second...)) // one-event records, then a batch
	f.Add([]byte{})
	f.Add([]byte{magic0})
	f.Add(mixed)
	f.Add(append(append([]byte{}, events...), events...))   // every record again: duplicates
	f.Add(append(append([]byte{}, batches...), batches...)) // every batch again

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, SegmentName(c.prefix, 1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			intact := intactIn(data, c.kinds)
			sc, err := OpenScanner(dir, c.prefix, c.kinds)
			if err != nil {
				t.Fatal(err)
			}
			var n, last uint64
			for {
				_, seq, body, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: Next returned a non-EOF error: %v", c.name, err)
				}
				if n++; n > uint64(len(data)) {
					t.Fatalf("%s: more records than input bytes: the scan is not advancing", c.name)
				}
				if n > 1 && seq <= last {
					t.Fatalf("%s: records out of order: %d after %d", c.name, seq, last)
				}
				if !slices.ContainsFunc(intact[seq], func(b []byte) bool { return bytes.Equal(b, body) }) {
					t.Fatalf("%s: returned %d, %q, which no CRC-valid record in the input holds", c.name, seq, body)
				}
				last = seq
			}
			st := sc.Stats()
			if st.Records != n || (n > 0 && st.LastSeq != last) {
				t.Fatalf("%s: stats %+v after %d records ending at %d", c.name, st, n, last)
			}
			if total := st.BytesRead + st.BytesSkipped; total != uint64(len(data)) {
				t.Fatalf("%s: %d bytes read + %d skipped of %d input bytes", c.name, st.BytesRead, st.BytesSkipped, len(data))
			}
			// Resuming over the same bytes never fails and never unlinks a
			// segment that holds a record.
			l, err := Open(c.options(dir))
			if err != nil {
				t.Fatalf("%s: Open: %v", c.name, err)
			}
			if kept := len(segmentFiles(t, dir)) == 1; kept != (l.Stats().Dropped == 0) || n > 0 && !kept {
				t.Fatalf("%s: %d records scanned, segment kept=%v, dropped=%d", c.name, n, kept, l.Stats().Dropped)
			}
		}
	})
}

// intactIn is the scan's fuzz oracle: by sequence number, every body a
// CRC-valid record of an accepted kind anywhere in data holds — a batch
// contributing its entries only when they fill it exactly, found by a
// walk of its own.
func intactIn(data []byte, kinds string) map[uint64][][]byte {
	out := make(map[uint64][][]byte)
	for i := range data {
		kind, seq, body, ok := validAt(data, i, kinds)
		if !ok {
			continue
		}
		if kind != KindBatch {
			out[seq] = append(out[seq], body)
			continue
		}
		if len(body) < 4 {
			continue
		}
		var entries [][]byte
		p := body[4:]
		for k := binary.BigEndian.Uint32(body); k > 0 && len(p) > 0; k-- {
			l, w := binary.Uvarint(p)
			if w <= 0 || l > uint64(len(p)-w) {
				break
			}
			entries = append(entries, p[w:w+int(l)])
			p = p[w+int(l):]
		}
		if len(p) == 0 && len(entries) > 0 && uint32(len(entries)) == binary.BigEndian.Uint32(body) {
			for k, e := range entries {
				out[seq+uint64(k)] = append(out[seq+uint64(k)], e)
			}
		}
	}
	return out
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCrashSoak is the segment log's reason to exist, proven the hard
// way, for both codecs. A writer is killed mid-append at random byte
// offsets (torn records) and at clean record boundaries, over and over;
// each time the log is abandoned unclosed, scanned, reopened, and what
// the tear lost is appended again. After every crash the scan must
// uphold the loss bound — recovered + quarantined == written, no acked
// record lost, nothing silently missing — and the writer must resume
// exactly where recovery says the log ends.
func TestCrashSoak(t *testing.T) {
	total := 3000
	if testing.Short() {
		total = 800
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			dir := t.TempDir()
			appended := 0 // records proven durable at cycle start
			var lastSkipped uint64
			var kills, tears int
			for cycle := 0; appended < total; cycle++ {
				if cycle > 600 {
					t.Fatalf("soak not converging: %d/%d after %d cycles", appended, total, cycle)
				}
				// Half the crashes land mid-write, half at a record boundary.
				torn := rng.Intn(2) == 0
				cleanStop := 1 + rng.Intn(120)
				o := c.options(dir)
				o.SegmentBytes = 8 << 10 // a cycle spans several segments
				if torn {
					// One kill point per cycle, wherever it falls: the chaos
					// writer outlives the segments it writes through.
					var file io.Writer
					cw := chaos.WrapWriter(writerFunc(func(p []byte) (int, error) { return file.Write(p) }),
						chaos.WriterConfig{Seed: rng.Int63(), KillAfterBytes: int64(200 + rng.Intn(40000))})
					o.WrapWriter = func(w io.Writer) io.Writer { file = w; return cw }
				}
				l := mustOpen(t, o)
				if got := int(l.LastSeq()); got != appended {
					t.Fatalf("cycle %d: writer resumed at seq %d, recovery said %d", cycle, got, appended)
				}
				acked, batch := 0, 0
				for appended+acked < total {
					batch = min(1+rng.Intn(c.batch), total-appended-acked)
					if _, err := c.appendN(l, appended+acked+1, batch); err != nil {
						break
					}
					acked += batch
					batch = 0
					if !torn && acked >= cleanStop {
						break
					}
				}
				kills++
				// Crash: the log is never Closed — whatever the kill let
				// through is all recovery gets.

				seqs, st := c.scan(t, dir)
				tornPartial := st.BytesSkipped > lastSkipped // this crash left ink behind
				if tornPartial {
					tears++
				}
				lastSkipped = st.BytesSkipped
				// Records of the torn batch that landed whole are recovered
				// though never acked; acked ones are never lost.
				if whole := int(st.Records) - appended - acked; whole < 0 || whole > batch {
					t.Fatalf("cycle %d: recovered %d, want %d acked plus at most %d from the torn batch",
						cycle, st.Records, appended+acked, batch)
				}
				if st.TornTail != tornPartial || st.Quarantined > 1 || (st.Quarantined == 1) != tornPartial {
					t.Fatalf("cycle %d: quarantined %d, TornTail=%v, but partial tear=%v: recovered+quarantined != written (%+v)",
						cycle, st.Quarantined, st.TornTail, tornPartial, st)
				}
				for i, seq := range seqs {
					if seq != uint64(i+1) {
						t.Fatalf("cycle %d: record %d has sequence %d: the log is not dense", cycle, i+1, seq)
					}
				}
				appended = int(st.Records)
			}
			if kills == 0 || tears == 0 {
				t.Fatalf("soak injected no faults (kills %d, tears %d) — not a soak", kills, tears)
			}
			if seqs, st := c.scan(t, dir); len(seqs) != total || st.FirstSeq != 1 || st.LastSeq != uint64(total) {
				t.Fatalf("final log: %d records over %d..%d, want %d over 1..%d", len(seqs), st.FirstSeq, st.LastSeq, total, total)
			}
		})
	}
}
