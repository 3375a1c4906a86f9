// Record codec, shared between the event WAL and the telemetry TSDB
// (internal/tsdb): the same magic/kind/seq/len/CRC framing, the same
// skip-and-count resynchronization, parameterized only by the kind
// byte — 'B' (and legacy 'E') for WAL event records, 'P' for TSDB point
// batches. The kind byte is covered by the CRC, so a record of one kind
// can never be mistaken for an intact record of another.

package wal

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"gretel/internal/trace"
)

// EncodeRecord appends one framed record of the given kind to buf and
// returns the extended buffer. The body must be at most MaxRecord
// bytes; longer bodies would be durable but unrecoverable, since the
// reader unconditionally skips oversized length prefixes.
func EncodeRecord(buf []byte, kind byte, seq uint64, body []byte) []byte {
	start := len(buf)
	buf = append(buf, recHdrZero[:]...)
	buf = append(buf, body...)
	sealRecord(buf[start:], kind, seq)
	return buf
}

// recHdrZero reserves a record header for sealRecord to fill.
var recHdrZero [recHdrLen]byte

// sealRecord completes a record in place: rec holds recHdrLen reserved
// bytes and then the body, and gets its header and CRC written.
func sealRecord(rec []byte, kind byte, seq uint64) {
	rec[0] = recMagic0
	rec[1] = recMagic1
	rec[2] = kind
	binary.BigEndian.PutUint64(rec[3:], seq)
	binary.BigEndian.PutUint32(rec[11:], uint32(len(rec)-recHdrLen))
	crc := crc32.ChecksumIEEE(rec[2:15])
	crc = crc32.Update(crc, crc32.IEEETable, rec[recHdrLen:])
	binary.BigEndian.PutUint32(rec[15:], crc)
}

// ReadRecord reads the next intact record whose kind byte is one of
// kinds from br, resynchronizing on corruption exactly like
// agent.readFrame: a bad magic, kind, or length advances the scan one
// byte; a CRC mismatch skips the record. skipped counts every discarded
// byte, including a truncated tail — unlike the wire reader, a file has
// a real end, so a partial record at EOF is drained and counted rather
// than left pending. The returned body aliases buf (grown as needed);
// it is valid until the next call.
func ReadRecord(br *bufio.Reader, kinds string, buf []byte) (kind byte, seq uint64, body []byte, skipped int64, err error) {
	for {
		b0, rerr := br.ReadByte()
		if rerr != nil {
			return 0, 0, nil, skipped, io.EOF
		}
		if b0 != recMagic0 {
			skipped++
			continue
		}
		hdr, rerr := br.Peek(recHdrLen - 1)
		if rerr != nil {
			if len(hdr) == 0 || hdr[0] != recMagic1 {
				skipped++
				continue
			}
			// A genuine record start torn mid-header: tail garbage.
			br.Discard(len(hdr))
			skipped += 1 + int64(len(hdr))
			return 0, 0, nil, skipped, io.EOF
		}
		if hdr[0] != recMagic1 {
			skipped++
			continue
		}
		kind = hdr[1]
		if strings.IndexByte(kinds, kind) < 0 {
			skipped++
			continue
		}
		n := binary.BigEndian.Uint32(hdr[10:14])
		if n > MaxRecord {
			skipped++
			continue
		}
		seq = binary.BigEndian.Uint64(hdr[2:10])
		want := binary.BigEndian.Uint32(hdr[14:18])
		crc := crc32.ChecksumIEEE(hdr[1:14])
		br.Discard(recHdrLen - 1)
		buf = slices.Grow(buf[:0], int(n))
		body = buf[:n]
		got, rerr := io.ReadFull(br, body)
		if rerr != nil {
			// Truncated body at end of file: header + partial body is
			// tail garbage.
			skipped += recHdrLen + int64(got)
			return 0, 0, nil, skipped, io.EOF
		}
		if crc32.Update(crc, crc32.IEEETable, body) != want {
			skipped += recHdrLen + int64(n)
			continue
		}
		return kind, seq, body, skipped, nil
	}
}

// KindEvent and KindPoints are the registered record kinds: trace
// events in the WAL, line-protocol point batches in the TSDB.
// kindEventJSON is the event record older logs wrote; it is read, never
// written.
const (
	KindEvent     = trace.BodyBinary
	KindPoints    = 'P'
	kindEventJSON = trace.BodyJSON

	eventKinds = string(KindEvent) + string(kindEventJSON)
)
