// Package seglog owns the two decisions every durable or wire byte in
// GRETEL depends on: the record envelope (this file) and the segment
// directory (log.go, scan.go). The agent's wire frames and the WAL's
// batches of events are both this envelope; the WAL is this segment log
// under batch records (batch.go) of its own event bodies.
//
// The envelope:
//
//	offset size
//	0      2    magic 0xF5 0x9E
//	2      1    kind (the caller's: what the body is)
//	3      8    sequence number, big-endian
//	11     4    body length, big-endian
//	15     4    CRC32 (IEEE) over bytes [2,15) and the body
//	19     n    body
//
// The magic lets a reader that lost alignment find the next record by
// scanning; the CRC covers the kind, so a record of one kind is never
// taken for an intact record of another; corruption is skipped and
// counted, never trusted and never an error.
package seglog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"strings"
)

const (
	magic0 = 0xF5
	magic1 = 0x9E
	// HdrLen is the envelope's header size.
	HdrLen = 19
	// MaxRecord bounds one body. ReadRecord treats a longer length
	// prefix as corruption, so a writer must refuse such a body: it would
	// be durable and unrecoverable.
	MaxRecord = 1 << 22
)

var hdrZero [HdrLen]byte

// Reserve appends room for one header to buf. Encode the body after it,
// then Seal the record in place — no second copy of the body.
func Reserve(buf []byte) []byte { return append(buf, hdrZero[:]...) }

// AppendRecord appends one sealed record around a copy of body — for a
// body that already exists; one being encoded goes after Reserve.
func AppendRecord(buf []byte, kind byte, seq uint64, body []byte) []byte {
	start := len(buf)
	buf = append(Reserve(buf), body...)
	Seal(buf[start:], kind, seq)
	return buf
}

// Seal completes a record in place: rec is HdrLen reserved bytes and
// then the body.
func Seal(rec []byte, kind byte, seq uint64) {
	rec[0], rec[1], rec[2] = magic0, magic1, kind
	binary.BigEndian.PutUint64(rec[3:], seq)
	binary.BigEndian.PutUint32(rec[11:], uint32(len(rec)-HdrLen))
	binary.BigEndian.PutUint32(rec[15:], crcBody(crcShort(0, rec[2:15]), rec[HdrLen:]))
}

// The envelope's CRC is crc32.ChecksumIEEE over the 13 header bytes,
// continued by crc32.Update over the body. The library runs a piece
// shorter than 16 bytes a byte at a time, and every record has two: the
// header, and whatever a body leaves past its last 16-byte block. Here
// those go through slicing-by-8 (crcShort), and the body's blocks still
// take the library's own path (crcBody).

// crcBody continues crc over a record body.
func crcBody(crc uint32, body []byte) uint32 {
	if k := len(body) &^ 15; k >= 64 {
		crc = crc32.Update(crc, crc32.IEEETable, body[:k])
		body = body[k:]
	}
	return crcShort(crc, body)
}

// crcShort continues an IEEE CRC over p, eight bytes per step.
func crcShort(crc uint32, p []byte) uint32 {
	t := &slicing8
	crc = ^crc
	for ; len(p) >= 8; p = p[8:] {
		crc ^= binary.LittleEndian.Uint32(p)
		crc = t[0][p[7]] ^ t[1][p[6]] ^ t[2][p[5]] ^ t[3][p[4]] ^
			t[4][crc>>24] ^ t[5][crc>>16&0xff] ^ t[6][crc>>8&0xff] ^ t[7][crc&0xff]
	}
	for _, v := range p {
		crc = t[0][byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// slicing8[k][b] is the IEEE CRC register after byte b is followed by k
// zero bytes.
var slicing8 = func() (t [8][256]uint32) {
	t[0] = *crc32.IEEETable
	for b := range t[0] {
		for k := 1; k < len(t); k++ {
			t[k][b] = t[0][t[k-1][b]&0xff] ^ t[k-1][b]>>8
		}
	}
	return t
}()

// Source is the one thing readers differ in: what a short read means.
type Source bool

const (
	// Socket: more bytes may follow. A read that ends inside a record
	// returns the I/O error and counts nothing; the connection is the
	// caller's to drop.
	Socket Source = false
	// File: the end is real. A record cut off by it is drained, counted
	// in Skipped.Bytes, and reported as io.EOF.
	File Source = true
)

// Skipped is what one ReadRecord call discarded while resynchronising.
type Skipped struct {
	Bytes int64 // every discarded byte
	CRC   int   // records among them that were whole but failed the CRC
}

// ReadRecord returns the next intact record whose kind is one of kinds.
// A bad magic, kind or length advances the scan one byte (a false start
// costs one byte, not a consumed prefix); a CRC mismatch skips the
// record. The only errors are the reader's own. body aliases buf, grown
// as needed, and is valid until the next call that is handed it.
func ReadRecord(br *bufio.Reader, kinds string, buf []byte, src Source) (kind byte, seq uint64, body []byte, sk Skipped, err error) {
	for {
		b0, err := br.ReadByte()
		if err != nil {
			return 0, 0, nil, sk, err
		}
		if b0 != magic0 {
			sk.Bytes++
			continue
		}
		hdr, err := br.Peek(HdrLen - 1)
		if err != nil {
			if len(hdr) == 0 || hdr[0] != magic1 {
				sk.Bytes++
				continue
			}
			if src == File && err == io.EOF { // a record start torn mid-header
				br.Discard(len(hdr))
				sk.Bytes += 1 + int64(len(hdr))
			}
			return 0, 0, nil, sk, err
		}
		kind = hdr[1]
		n := binary.BigEndian.Uint32(hdr[10:14])
		if hdr[0] != magic1 || strings.IndexByte(kinds, kind) < 0 || n > MaxRecord {
			sk.Bytes++
			continue
		}
		seq = binary.BigEndian.Uint64(hdr[2:10])
		want := binary.BigEndian.Uint32(hdr[14:18])
		crc := crcShort(0, hdr[1:14])
		br.Discard(HdrLen - 1) // cannot fail: Peek just returned these bytes
		buf = slices.Grow(buf[:0], int(n))
		body = buf[:n]
		if got, err := io.ReadFull(br, body); err != nil {
			if src == File && (err == io.ErrUnexpectedEOF || err == io.EOF) {
				sk.Bytes += HdrLen + int64(got)
				err = io.EOF
			}
			return 0, 0, nil, sk, err
		}
		if crcBody(crc, body) != want {
			// Corrupt, or a false magic inside corrupt bytes. If the length
			// itself was damaged the scan is now misaligned and the next
			// magic check finds its way back.
			sk.Bytes += HdrLen + int64(n)
			sk.CRC++
			continue
		}
		return kind, seq, body, sk, nil
	}
}

// Buffered reports whether br already holds a whole next record: unless
// that record proves corrupt, the next ReadRecord returns it without
// reading the underlying reader. Otherwise ReadRecord may wait for input.
func Buffered(br *bufio.Reader) bool {
	have := br.Buffered()
	if have < HdrLen {
		return false
	}
	hdr, _ := br.Peek(HdrLen) // cannot fail: the bytes are buffered
	n := binary.BigEndian.Uint32(hdr[11:15])
	return hdr[0] == magic0 && hdr[1] == magic1 && n <= MaxRecord && have-HdrLen >= int(n)
}
