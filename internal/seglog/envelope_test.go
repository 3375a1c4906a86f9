package seglog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"gretel/internal/trace"
)

// testKinds is every kind in use: the agent's frames ('I' hello, 'B'
// event, 'E' legacy JSON event, 'S' state, 'H' heartbeat) and 'P', the
// tests' own second record kind (text batches), which proves kinds are
// never confused.
const testKinds = "IBESHP"

var record = AppendRecord

func eventBody(i int) []byte {
	ev := trace.Event{Seq: uint64(i), ConnID: uint64(i), Status: 200, SrcNode: "nova-api-node", WireBytes: 150 + i}
	return trace.AppendEvent(nil, &ev)
}

func reader(data []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(data)) }

func TestSealReadRoundTrip(t *testing.T) {
	var stream []byte
	bodies := [][]byte{eventBody(1), []byte(`{"agent":"a"}`), nil, []byte("m,h=a v=1i 1\n")}
	for i, b := range bodies {
		stream = record(stream, testKinds[i], uint64(i+7), b)
	}
	for _, src := range []Source{Socket, File} {
		br := reader(stream)
		var buf []byte
		for i, want := range bodies {
			kind, seq, body, sk, err := ReadRecord(br, testKinds, buf, src)
			if err != nil || kind != testKinds[i] || seq != uint64(i+7) || !bytes.Equal(body, want) || sk != (Skipped{}) {
				t.Fatalf("src=%v record %d: kind=%q seq=%d body=%q skipped=%+v err=%v", src, i, kind, seq, body, sk, err)
			}
			buf = body
		}
		if _, _, _, sk, err := ReadRecord(br, testKinds, buf, src); err != io.EOF || sk != (Skipped{}) {
			t.Fatalf("src=%v: end of a clean stream: skipped=%+v err=%v, want io.EOF", src, sk, err)
		}
	}
}

func TestReadRecordResync(t *testing.T) {
	good := record(nil, 'B', 2, eventBody(2))
	badCRC := record(nil, 'B', 1, eventBody(1))
	badCRC[HdrLen] ^= 0xff
	oversized := record(nil, 'B', 1, eventBody(1))
	binary.BigEndian.PutUint32(oversized[11:], MaxRecord+1)
	otherKind := record(nil, 'P', 1, []byte("points"))
	for _, tc := range []struct {
		name    string
		prefix  []byte
		skipped int64
		crc     int
	}{
		{"crc mismatch skips the whole record", badCRC, int64(len(badCRC)), 1},
		// An implausible length or an unaccepted kind is a false start:
		// the scan moves one byte, never trusts the length.
		{"oversized length", oversized, int64(len(oversized)), 0},
		{"kind not accepted", otherKind, int64(len(otherKind)), 0},
		{"garbage with a fake magic", []byte{0x00, magic0, 0x13, magic0, magic1, 'X', magic0}, 7, 0},
	} {
		for _, src := range []Source{Socket, File} {
			kind, seq, body, sk, err := ReadRecord(reader(append(append([]byte{}, tc.prefix...), good...)), "BE", nil, src)
			if err != nil || kind != 'B' || seq != 2 || !bytes.Equal(body, good[HdrLen:]) {
				t.Fatalf("%s (src=%v): kind=%q seq=%d err=%v, want the good record", tc.name, src, kind, seq, err)
			}
			if sk.Bytes != tc.skipped || sk.CRC != tc.crc {
				t.Fatalf("%s (src=%v): skipped %+v, want %d bytes, %d CRC", tc.name, src, sk, tc.skipped, tc.crc)
			}
		}
	}
}

// TestShortRead is the one difference between the two sources: a record
// cut off by the end of the input is drained and counted from a file,
// and left alone — with the reader's own error — on a socket.
func TestShortRead(t *testing.T) {
	rec := record(nil, 'B', 1, eventBody(1))
	for cut := 1; cut < len(rec); cut++ {
		_, _, _, sk, err := ReadRecord(reader(rec[:cut]), "B", nil, File)
		if err != io.EOF || sk.Bytes != int64(cut) {
			t.Fatalf("file cut at %d: skipped=%d err=%v, want every byte counted and io.EOF", cut, sk.Bytes, err)
		}
		if cut == 1 {
			continue // a lone first magic byte is not yet a record start: skipped from either source
		}
		_, _, _, sk, err = ReadRecord(reader(rec[:cut]), "B", nil, Socket)
		if err == nil || sk.Bytes != 0 {
			t.Fatalf("socket cut at %d: skipped=%d err=%v, want nothing counted and an error", cut, sk.Bytes, err)
		}
		if cut > HdrLen && err != io.ErrUnexpectedEOF {
			t.Fatalf("socket cut mid-body at %d: err=%v, want the reader's own io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadRecordReusesBuffer(t *testing.T) {
	var stream []byte
	for i := 1; i <= 64; i++ {
		stream = record(stream, 'B', uint64(i), eventBody(i))
	}
	br := bufio.NewReaderSize(nil, 4096)
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(10, func() {
		r := bytes.NewReader(stream)
		br.Reset(r)
		for {
			_, _, body, _, err := ReadRecord(br, "B", buf, File)
			if err != nil {
				break
			}
			buf = body
		}
	})
	if allocs > 1 { // the bytes.Reader
		t.Fatalf("reading 64 records allocated %.0f times: ReadRecord must not allocate per record", allocs)
	}
}

// validAt is the fuzz oracle, independent of ReadRecord's logic: does a
// CRC-valid record of an accepted kind start at data[i]?
func validAt(data []byte, i int, kinds string) (kind byte, seq uint64, body []byte, ok bool) {
	if i+HdrLen > len(data) || data[i] != magic0 || data[i+1] != magic1 || strings.IndexByte(kinds, data[i+2]) < 0 {
		return 0, 0, nil, false
	}
	for _, b := range data[i+3 : i+11] {
		seq = seq<<8 | uint64(b)
	}
	n := int(uint32(data[i+11])<<24 | uint32(data[i+12])<<16 | uint32(data[i+13])<<8 | uint32(data[i+14]))
	if n > MaxRecord || i+HdrLen+n > len(data) {
		return 0, 0, nil, false
	}
	want := uint32(data[i+15])<<24 | uint32(data[i+16])<<16 | uint32(data[i+17])<<8 | uint32(data[i+18])
	body = data[i+HdrLen : i+HdrLen+n]
	crc := crc32.Update(crc32.ChecksumIEEE(data[i+2:i+15]), crc32.IEEETable, body)
	return data[i+2], seq, body, crc == want
}

// FuzzEnvelope is the one fuzzer for the one reader. Input: a byte
// stream, one byte of it XORed with flip at pos, and then a known-good
// record. Under any input, from either source, ReadRecord must
// terminate without panicking; return only records the brute-force
// oracle finds CRC-valid in the input, of an accepted kind and a bounded
// size; never account for more bytes than exist (a file: exactly the
// bytes that exist); and find the good record behind any garbage that
// holds no magic of its own — the resync guarantee.
func FuzzEnvelope(f *testing.F) {
	ev := eventBody(7)
	good := record(nil, 'E', 7, []byte(`{"seq":7,"conn":7,"status":413}`)) // a legacy JSON event frame
	goodBin := record(nil, 'B', 7, ev)
	goodState := record(nil, 'S', 8, []byte(`{"nodes":[{"name":"n1","up":true}]}`))
	data := func(b []byte) { f.Add(b, uint16(0), byte(0)) }

	// Real frames, then each documented corruption class.
	data(good)
	data(goodState)
	data(record(nil, 'H', 99, []byte(`{"agent":"fuzz","shed":3}`)))
	data(append(append([]byte{}, good...), goodState...)) // back-to-back
	data(append([]byte{0x00, 0xF5, 0x13}, good...))       // garbage prefix
	badKind := append([]byte{}, good...)
	badKind[2] = 'X'
	data(badKind)
	oversized := append([]byte{}, good...)
	binary.BigEndian.PutUint32(oversized[11:], MaxRecord+1)
	data(oversized)
	truncLen := append([]byte{}, good...)
	binary.BigEndian.PutUint32(truncLen[11:], uint32(len(good)-HdrLen+100))
	data(truncLen)
	data(good[:HdrLen-3]) // truncated header
	badCRC := append([]byte{}, good...)
	badCRC[len(badCRC)-1] ^= 0xff
	data(append(badCRC, good...))
	// The same classes on the binary event frame, and on a point batch.
	data(goodBin)
	data(append(append([]byte{}, goodBin...), good...)) // mixed-version stream
	data(goodBin[:len(goodBin)-5])                      // truncated body
	badCRCBin := append([]byte{}, goodBin...)
	badCRCBin[HdrLen+3] ^= 0x40
	data(append(badCRCBin, goodBin...))
	data(record(nil, 'P', 3, []byte("m,h=a v=1i 1\nm,h=a v=2i 2\n")))
	// Garbage that must not hide the record after it.
	data([]byte{})
	data([]byte{0xF5})            // lone magic0
	data([]byte{0xF5, 0x9E})      // magic pair, no header
	data([]byte{0xF5, 0x9E, 'E'}) // looks like a record start
	data([]byte{'X', 0, 0, 0, 1}) // old-format garbage
	data(bytes.Repeat([]byte{0xF5}, 40))
	data([]byte{0xF5, 0x9E, 'B'})
	data(record(nil, 'B', 41, eventBody(41))[:HdrLen+4]) // torn mid-body
	// One flipped byte in a segment of both event kinds.
	healthy := record(nil, 'E', 1, []byte(`{"seq":1,"conn":1}`))
	firstBin := len(healthy)
	for i := 2; i <= 3; i++ {
		healthy = record(healthy, 'B', uint64(i), eventBody(i))
	}
	f.Add(healthy, uint16(0), byte(0xff))
	f.Add(healthy, uint16(20), byte(0x01))
	f.Add(healthy, uint16(firstBin+2), byte('B'^'E'))   // binary record's kind byte turned legacy
	f.Add(healthy, uint16(firstBin+HdrLen), byte(0x03)) // binary body's version byte
	f.Add(healthy, uint16(len(healthy)-1), byte(0x80))  // last byte of the last body

	tail := record(nil, 'B', 42, eventBody(42))
	f.Fuzz(func(t *testing.T, in []byte, pos uint16, flip byte) {
		if len(in) > 1<<16 {
			return
		}
		data := append(append([]byte{}, in...), tail...)
		if len(in) > 0 {
			data[int(pos)%len(in)] ^= flip
		}
		var valid int
		for i := range data {
			if _, _, _, ok := validAt(data, i, testKinds); ok {
				valid++
			}
		}
		for _, src := range []Source{Socket, File} {
			br := reader(data)
			var (
				buf       []byte
				consumed  int64
				returned  int
				recovered bool
			)
			for {
				kind, seq, body, sk, err := ReadRecord(br, testKinds, buf, src)
				consumed += sk.Bytes
				if err != nil {
					break
				}
				buf = body
				returned++
				consumed += HdrLen + int64(len(body))
				if strings.IndexByte(testKinds, kind) < 0 || len(body) > MaxRecord {
					t.Fatalf("src=%v: returned kind %q with a %d-byte body", src, kind, len(body))
				}
				found := false
				for i := 0; i < len(data) && !found; i++ {
					k, s, b, ok := validAt(data, i, testKinds)
					found = ok && k == kind && s == seq && bytes.Equal(b, body)
				}
				if !found {
					t.Fatalf("src=%v: returned kind %q seq %d with no CRC-valid encoding in the input", src, kind, seq)
				}
				recovered = recovered || kind == 'B' && seq == 42 && bytes.Equal(body, tail[HdrLen:])
			}
			if returned > valid {
				t.Fatalf("src=%v: %d records returned, only %d CRC-valid in the input", src, returned, valid)
			}
			if consumed > int64(len(data)) || src == File && consumed != int64(len(data)) {
				t.Fatalf("src=%v: accounted for %d of %d input bytes", src, consumed, len(data))
			}
			if !recovered && !bytes.Contains(data[:len(in)], []byte{magic0, magic1}) {
				t.Fatalf("src=%v: the record after magic-free garbage was not recovered", src)
			}
		}
	})
}

// TestBuffered: true exactly when a whole record already sits in the
// reader's buffer — so that a caller holding work can tell whether the
// next ReadRecord might wait for input.
func TestBuffered(t *testing.T) {
	one := record(nil, 'B', 1, eventBody(1))
	two := record(nil, 'B', 2, eventBody(2))
	oversized := append([]byte{}, one...)
	binary.BigEndian.PutUint32(oversized[11:], MaxRecord+1)
	for _, tc := range []struct {
		name string
		data []byte
		want bool
	}{
		{"empty", nil, false},
		{"short of a header", one[:HdrLen-1], false},
		{"header and half a body", one[:HdrLen+3], false},
		{"exactly one record", one, true},
		{"a record and a half", append(append([]byte{}, one...), two[:len(two)/2]...), true},
		{"not a record start", append([]byte{0x00}, one...), false},
		{"implausible length", oversized, false},
	} {
		br := reader(tc.data)
		br.Peek(1) // fill the buffer, as a previous read would have
		if got := Buffered(br); got != tc.want {
			t.Errorf("%s: Buffered = %v, want %v", tc.name, got, tc.want)
		}
	}
	// After the whole record is consumed, the half record left is not one.
	br := reader(append(append([]byte{}, one...), two[:len(two)/2]...))
	if _, _, _, _, err := ReadRecord(br, "B", nil, Socket); err != nil || Buffered(br) {
		t.Fatalf("after reading the whole record: err=%v Buffered=%v, want nil and false", err, Buffered(br))
	}
}

// The envelope CRC's short-piece path equals the library's CRC, header
// and body alike, at every body length around the 16-byte blocks and
// the 64-byte threshold of the library's block path.
func TestRecordCRCMatchesLibrary(t *testing.T) {
	hdr := []byte("B\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x01\x2c")
	body := make([]byte, 300)
	for i := range body {
		body[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(body); n++ {
		want := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, body[:n])
		if got := crcBody(crcShort(0, hdr), body[:n]); got != want {
			t.Fatalf("%d-byte body: CRC %08x, library %08x", n, got, want)
		}
	}
}
