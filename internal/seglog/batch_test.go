package seglog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// batch appends one batch record of the n entries body(seq) onward.
func batch(buf []byte, seq uint64, n int, body func(i int) []byte) []byte {
	buf, took := AppendBatch(buf, seq, n, func(b []byte, j int) []byte { return append(b, body(int(seq)+j)...) })
	if took != n {
		panic(fmt.Sprintf("batch of %d took %d entries", n, took))
	}
	return buf
}

// writeSegment writes data as the segment wal-<first>.seg in dir.
func writeSegment(t *testing.T, dir string, first uint64, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, SegmentName("wal-", first)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLayout pins the batch record byte for byte: the envelope
// around a four-byte count and uvarint-prefixed entries, an entry of 128
// bytes or more behind a two-byte prefix.
func TestBatchLayout(t *testing.T) {
	long := bytes.Repeat([]byte{'x'}, 300)
	entries := [][]byte{{}, []byte("a"), long}
	got, took := AppendBatch([]byte("prefix"), 42, len(entries), func(b []byte, i int) []byte { return append(b, entries[i]...) })
	if took != 3 {
		t.Fatalf("took %d entries, want 3", took)
	}
	body := append([]byte{0, 0, 0, 3, 0, 1, 'a', 0xac, 0x02}, long...)
	want := AppendRecord([]byte("prefix"), KindBatch, 42, body)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch record\n got  %x\n want %x", got, want)
	}
}

// TestBatchBuiltByEntry: a record built an entry at a time is
// AppendBatch's record of the same entries, byte for byte, and BatchFits
// lets a body reach BatchBytes exactly but not pass it — counting a
// length prefix's second byte from 128 bytes on — while a record with no
// entry yet takes any entry.
func TestBatchBuiltByEntry(t *testing.T) {
	entries := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{'x'}, 300)}
	want, _ := AppendBatch([]byte("prefix"), 42, len(entries), func(b []byte, i int) []byte { return append(b, entries[i]...) })
	got := StartBatch([]byte("prefix"))
	for _, e := range entries {
		got = AppendEntry(got, e)
	}
	SealBatch(got[len("prefix"):], len(entries), 42)
	if !bytes.Equal(got, want) {
		t.Fatalf("built by entry\n got  %x\n want %x", got, want)
	}

	if rec := StartBatch(nil); !BatchFits(rec, 2*BatchBytes) {
		t.Fatal("an empty record refused its first entry")
	}
	for _, size := range []int{127, 128, 1000} {
		// A body that many bytes short of BatchBytes, whatever it holds:
		// BatchFits goes by length alone.
		need := len(AppendEntry(nil, make([]byte, size)))
		rec := append(StartBatch(nil), make([]byte, BatchBytes-countLen-need)...)
		if !BatchFits(rec, size) || BatchFits(append(rec, 0), size) {
			t.Fatalf("entry of %d bytes into a body of %d: fits %v, one byte more fits %v",
				size, len(rec)-HdrLen, BatchFits(rec, size), BatchFits(append(rec, 0), size))
		}
	}
}

// TestBatchSplitsAtBound: a record closes once its body reaches
// BatchBytes, and an entry too large to sit beside the others within
// MaxRecord starts the next record instead.
func TestBatchSplitsAtBound(t *testing.T) {
	entry := bytes.Repeat([]byte{'e'}, 1000)
	enc := func(b []byte, _ int) []byte { return append(b, entry...) }
	buf, took := AppendBatch(nil, 1, 1000, enc)
	perEntry := 2 + len(entry)
	if want := (BatchBytes - countLen + perEntry - 1) / perEntry; took != want {
		t.Fatalf("first record took %d entries, want %d", took, want)
	}
	if body := len(buf) - HdrLen; body < BatchBytes || body-perEntry >= BatchBytes {
		t.Fatalf("record body %d bytes: not closed at the first entry to reach %d", body, BatchBytes)
	}

	huge := bytes.Repeat([]byte{'h'}, MaxRecord-8)
	sizes := []int{}
	for i, entries := 0, [][]byte{[]byte("small"), huge}; i < len(entries); {
		var buf []byte
		var took int
		buf, took = AppendBatch(nil, uint64(i+1), len(entries)-i, func(b []byte, j int) []byte { return append(b, entries[i+j]...) })
		sizes = append(sizes, took)
		if i == 1 && len(buf)-HdrLen > MaxRecord {
			t.Fatalf("the huge entry alone makes a %d-byte body", len(buf)-HdrLen)
		}
		i += took
	}
	if fmt.Sprint(sizes) != "[1 1]" {
		t.Fatalf("records took %v entries, want the huge one in a record of its own", sizes)
	}
}

// TestScanBatches: a batch is scanned an entry at a time under dense
// sequence numbers, beside one-event records; a batch whose CRC fails or
// whose count or lengths lie returns nothing and costs all its entries,
// counted through the gap; a scan stopped inside a batch has booked only
// the entries it returned; and resuming lands on the last entry.
func TestScanBatches(t *testing.T) {
	c := codecs[1]
	var seg []byte
	seg = record(seg, 'B', 1, eventBody(1))
	seg = batch(seg, 2, 5, eventBody)
	bad := batch(nil, 7, 4, eventBody)
	seg = append(seg, bad...)
	seg = batch(seg, 11, 3, eventBody)
	for name, edit := range map[string]func(rec []byte){
		"crc":          func(rec []byte) { rec[len(rec)-1] ^= 0xff },
		"count high":   func(rec []byte) { rec[HdrLen+3]++; Seal(rec, KindBatch, 7) },
		"count low":    func(rec []byte) { rec[HdrLen+3]--; Seal(rec, KindBatch, 7) },
		"length lies":  func(rec []byte) { rec[HdrLen+countLen]++; Seal(rec, KindBatch, 7) },
		"count zero":   func(rec []byte) { binary.BigEndian.PutUint32(rec[HdrLen:], 0); Seal(rec, KindBatch, 7) },
		"intact batch": func([]byte) {},
	} {
		t.Run(name, func(t *testing.T) {
			data := bytes.Clone(seg)
			at := bytes.Index(data, bad)
			edit(data[at : at+len(bad)])
			dir := t.TempDir()
			writeSegment(t, dir, 1, data)
			seqs, st := c.scan(t, dir)
			want, quarantined, skipped := "[1 2 3 4 5 6 11 12 13]", uint64(4), uint64(len(bad))
			if name == "intact batch" {
				want, quarantined, skipped = "[1 2 3 4 5 6 7 8 9 10 11 12 13]", 0, 0
			}
			if fmt.Sprint(seqs) != want || st.Quarantined != quarantined || st.BytesSkipped != skipped ||
				st.BytesRead+st.BytesSkipped != uint64(len(data)) || st.TornTail {
				t.Fatalf("scanned %v, %+v; want %s with %d quarantined and %d bytes skipped", seqs, st, want, quarantined, skipped)
			}
			if l := mustOpen(t, c.options(dir)); l.LastSeq() != 13 {
				t.Fatalf("resumed at %d, want 13", l.LastSeq())
			}
		})
	}

	t.Run("stopped inside a batch", func(t *testing.T) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, seg)
		sc, err := OpenScanner(dir, c.prefix, c.kinds)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for range 3 {
			if _, _, _, err := sc.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if st := sc.Stats(); st.Records != 3 || st.LastSeq != 3 {
			t.Fatalf("after 3 entries: %+v, want 3 records ending at 3", st)
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		// A torn batch is one quarantined append, whatever its count says.
		dir := t.TempDir()
		writeSegment(t, dir, 1, seg[:len(seg)-5])
		seqs, st := c.scan(t, dir)
		if fmt.Sprint(seqs) != "[1 2 3 4 5 6 7 8 9 10]" || !st.TornTail || st.Quarantined != 1 {
			t.Fatalf("scanned %v, %+v; want 1..10 and the torn batch as one", seqs, st)
		}
		if l := mustOpen(t, c.options(dir)); l.LastSeq() != 10 {
			t.Fatalf("resumed at %d, want 10", l.LastSeq())
		}
	})
}

// TestScanBatchDuplicates: a batch the scan has partly returned already
// yields only its entries past the last sequence returned.
func TestScanBatchDuplicates(t *testing.T) {
	c := codecs[1]
	dir := t.TempDir()
	writeSegment(t, dir, 1, batch(nil, 1, 4, eventBody))
	writeSegment(t, dir, 5, batch(nil, 3, 5, eventBody))
	seqs, st := c.scan(t, dir)
	if fmt.Sprint(seqs) != "[1 2 3 4 5 6 7]" || st.Duplicates != 2 || st.Quarantined != 0 {
		t.Fatalf("scanned %v, %+v; want 1..7 with 2 duplicates", seqs, st)
	}
}
