package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gretel/internal/seglog"
	"gretel/internal/trace"
)

// FuzzSegmentRecovery throws arbitrary bytes at the recovery reader as
// a segment file. The reader's contract under any input: never panic,
// never loop, never return an event from a record whose CRC did not
// pass or whose count or lengths lie, and keep the accounting coherent
// (every byte is either part of a record read or counted as skipped).
func FuzzSegmentRecovery(f *testing.F) {
	// Seed corpus: a healthy segment, truncations, and spliced garbage.
	var healthy, healthyBin, mixed []byte
	for i := 1; i <= 4; i++ {
		ev := trace.Event{Seq: uint64(i), ConnID: uint64(i), Status: 200}
		healthy = jsonRecord(healthy, uint64(i), ev) // a segment of the unknown kind 'E'
		healthyBin = binRecord(healthyBin, uint64(i), ev)
		if i%2 == 0 {
			mixed = jsonRecord(mixed, uint64(i), ev)
		} else {
			mixed = binRecord(mixed, uint64(i), ev)
		}
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-7])
	f.Add(append([]byte{recMagic0, recMagic1, kindEventJSON, 0xff}, healthy...))
	f.Add([]byte{})
	f.Add([]byte{recMagic0})
	// The same on the binary records the log writes.
	f.Add(healthyBin)
	f.Add(healthyBin[:len(healthyBin)-7])
	f.Add(append([]byte{recMagic0, recMagic1, KindEvent, 0xff}, healthyBin...))
	f.Add(mixed)
	// Batch records as the log writes them: healthy; torn inside the
	// count, inside the two-byte length of a long event, and inside that
	// event; and resealed, CRC-valid, around a count or a length that
	// lies, with a healthy batch behind it.
	evs := testEvents(7)
	evs[0].ErrorText = string(bytes.Repeat([]byte{'x'}, 200))
	batches := batchRecord(batchRecord(nil, 1, evs[:4]), 5, evs[4:])
	second := batches[len(batchRecord(nil, 1, evs[:4])):]
	const countAt, lenAt = recHdrLen, recHdrLen + 4
	f.Add(batches)
	f.Add(batches[:countAt+2])
	f.Add(batches[:lenAt+1])
	f.Add(batches[:lenAt+2+50])
	f.Add(append(append([]byte{}, healthyBin...), second...)) // an upgrade in place
	for _, lie := range []func(rec []byte){
		func(rec []byte) { rec[countAt+3]++ },
		func(rec []byte) { rec[countAt+3]-- },
		func(rec []byte) { rec[lenAt+1]++ },
		func(rec []byte) { rec[lenAt+1]-- },
	} {
		rec := batchRecord(nil, 1, evs[:4])
		lie(rec)
		seglog.Seal(rec, seglog.KindBatch, 1)
		f.Add(append(rec, second...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		defer r.Close()

		intact := intactSeqs(data)
		var n uint64
		lastSeq := uint64(0)
		for {
			seq, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next returned non-EOF error: %v", err)
			}
			n++
			if n > uint64(len(data)) {
				t.Fatalf("more records than input bytes: the scan is not advancing")
			}
			if seq <= lastSeq {
				t.Fatalf("records out of order: %d after %d", seq, lastSeq)
			}
			if !intact[seq] {
				t.Fatalf("returned seq %d, which no CRC-valid record in the input covers", seq)
			}
			lastSeq = seq
		}
		stats := r.Stats()
		if stats.Records != n {
			t.Fatalf("stats.Records=%d but Next returned %d", stats.Records, n)
		}
		if stats.BytesRead+stats.BytesSkipped != uint64(len(data)) {
			t.Fatalf("%d bytes read + %d skipped of a %d-byte input", stats.BytesRead, stats.BytesSkipped, len(data))
		}
	})
}

// intactSeqs is the recovery fuzz oracle, independent of the reader: the
// sequence numbers some CRC-valid record in data covers — a one-event
// record its own, a batch whose entries fill it exactly all of its.
func intactSeqs(data []byte) map[uint64]bool {
	out := make(map[uint64]bool)
	for i := 0; i+recHdrLen <= len(data); i++ {
		if data[i] != recMagic0 || data[i+1] != recMagic1 || (data[i+2] != KindEvent && data[i+2] != seglog.KindBatch) {
			continue
		}
		seq := binary.BigEndian.Uint64(data[i+3:])
		n := int(binary.BigEndian.Uint32(data[i+11:]))
		if n > MaxRecord || i+recHdrLen+n > len(data) {
			continue
		}
		body := data[i+recHdrLen : i+recHdrLen+n]
		crc := crc32.Update(crc32.ChecksumIEEE(data[i+2:i+15]), crc32.IEEETable, body)
		if crc != binary.BigEndian.Uint32(data[i+15:]) {
			continue
		}
		if data[i+2] == KindEvent {
			out[seq] = true
			continue
		}
		if len(body) < 4 {
			continue
		}
		count, p, k := binary.BigEndian.Uint32(body), body[4:], uint32(0)
		for ; k < count && len(p) > 0; k++ {
			l, w := binary.Uvarint(p)
			if w <= 0 || l > uint64(len(p)-w) {
				break
			}
			p = p[w+int(l):]
		}
		if k == count && count > 0 && len(p) == 0 {
			for j := range uint64(count) {
				out[seq+j] = true
			}
		}
	}
	return out
}

// batchRecord appends the batch record the log writes for evs, numbered
// from seq.
func batchRecord(buf []byte, seq uint64, evs []trace.Event) []byte {
	buf, _ = seglog.AppendBatch(buf, seq, len(evs), func(b []byte, i int) []byte { return trace.AppendEvent(b, &evs[i]) })
	return buf
}

// FuzzRecordCRC cross-checks the reader against a brute-force scan:
// any record the reader returns must correspond to a byte range whose
// stored CRC verifies. Mutating one byte of a healthy segment must
// never yield more intact records than were written.
func FuzzRecordCRC(f *testing.F) {
	// A record of the unknown kind 'E' (skipped whole), then binary ones.
	healthy := jsonRecord(nil, 1, trace.Event{Seq: 1, ConnID: 1})
	firstBin := len(healthy)
	for i := 2; i <= 3; i++ {
		healthy = binRecord(healthy, uint64(i), trace.Event{Seq: uint64(i), ConnID: uint64(i)})
	}
	f.Add(uint16(0), byte(0xff))
	f.Add(uint16(20), byte(0x01))
	f.Add(uint16(firstBin+2), byte('B'^'E'))      // binary record's kind byte turned unknown
	f.Add(uint16(firstBin+recHdrLen), byte(0x03)) // binary body version byte
	f.Add(uint16(len(healthy)-1), byte(0x80))     // last byte of the last binary body
	f.Fuzz(func(t *testing.T, pos uint16, flip byte) {
		data := append([]byte(nil), healthy...)
		if flip != 0 {
			data[int(pos)%len(data)] ^= flip
		}
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644)
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var n int
		for {
			seq, _, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			// Re-verify the returned record against the raw bytes: its
			// encoded form must exist in data with a passing CRC.
			if !recordVerifies(data, seq) {
				t.Fatalf("reader returned seq %d with no CRC-valid encoding in the input", seq)
			}
			n++
		}
		if n > 3 {
			t.Fatalf("one byte flip produced %d records from 3", n)
		}
	})
}

// recordVerifies brute-force scans data for a CRC-valid record with the
// given sequence — the fuzz oracle, independent of the reader's logic.
func recordVerifies(data []byte, seq uint64) bool {
	for i := 0; i+recHdrLen <= len(data); i++ {
		if data[i] != recMagic0 || data[i+1] != recMagic1 || data[i+2] != KindEvent {
			continue
		}
		var s uint64
		for _, b := range data[i+3 : i+11] {
			s = s<<8 | uint64(b)
		}
		if s != seq {
			continue
		}
		n := int(uint32(data[i+11])<<24 | uint32(data[i+12])<<16 | uint32(data[i+13])<<8 | uint32(data[i+14]))
		if i+recHdrLen+n > len(data) {
			continue
		}
		want := uint32(data[i+15])<<24 | uint32(data[i+16])<<16 | uint32(data[i+17])<<8 | uint32(data[i+18])
		crc := crc32.ChecksumIEEE(data[i+2 : i+15])
		crc = crc32.Update(crc, crc32.IEEETable, data[i+recHdrLen:i+recHdrLen+n])
		if crc == want {
			return true
		}
	}
	return false
}
