// The batch record: one envelope, one CRC, a run of entries. Its kind is
// KindBatch and its body is
//
//	offset size
//	0      4    entry count, big-endian, at least 1
//	4      ...  count entries, each a uvarint length and that many bytes
//
// The header's sequence number is the first entry's; the entries carry
// the count-1 numbers after it. A body whose entries do not fill it
// exactly — a count or a length that lies — is as corrupt as one that
// fails its CRC: no entry of it is returned, and its numbers show as a
// sequence gap. Entries are opaque here; the caller says what they are.

package seglog

import (
	"encoding/binary"
	"math/bits"
)

const (
	// KindBatch is the envelope kind of a batch record. A log reads
	// batches only if its Kinds name this kind.
	KindBatch byte = 'R'
	// BatchBytes closes a batch record once its body reaches this size,
	// bounding both what one damaged byte costs and the reader's buffer.
	// A record always takes at least one entry, so one entry larger than
	// this is a record of its own.
	BatchBytes = 64 << 10

	countLen = 4
)

// AppendBatch appends one sealed batch record to buf, numbered from
// seq: enc(buf, i) appends entry i for i = 0, 1, … until n entries are
// in or the body has reached BatchBytes. It returns the buffer and how
// many entries the record took (at least one; n must be positive). The
// body exceeds MaxRecord only if its one entry does; a caller must
// refuse such a record, which the reader would skip as corrupt.
func AppendBatch(buf []byte, seq uint64, n int, enc func(buf []byte, i int) []byte) ([]byte, int) {
	start := len(buf)
	buf = StartBatch(buf)
	i := 0
	for i < n && len(buf)-start-HdrLen < BatchBytes {
		at := len(buf)
		buf = putLen(enc(append(buf, 0), i), at)
		if i > 0 && len(buf)-start-HdrLen > MaxRecord {
			buf = buf[:at] // too large beside the others: the next record's first
			break
		}
		i++
	}
	SealBatch(buf[start:], i, seq)
	return buf, i
}

// A batch record can also be built an entry at a time, from entries that
// already exist: StartBatch, then AppendEntry per entry while BatchFits,
// then SealBatch. Entries of AppendBatch's records are laid out the same
// way, so the two give the same bytes for the same entries wherever
// AppendBatch would not have split them.

// StartBatch appends to buf the room a batch record takes ahead of its
// first entry: the envelope's header and the count.
func StartBatch(buf []byte) []byte { return append(Reserve(buf), 0, 0, 0, 0) }

// AppendEntry appends one entry to the batch record being built at the
// end of buf: its uvarint length, then a copy of it.
func AppendEntry(buf, entry []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(entry))), entry...)
}

// BatchFits reports whether rec, a batch record being built, stays
// within BatchBytes with an entry of size more bytes. A record that
// would pass it closes first; one with no entry yet takes any entry.
func BatchFits(rec []byte, size int) bool {
	body := len(rec) - HdrLen
	return body == countLen || body+uvarintLen(size)+size <= BatchBytes
}

// SealBatch completes a batch record of n entries in place: rec is
// StartBatch's room and then the entries.
func SealBatch(rec []byte, n int, seq uint64) {
	binary.BigEndian.PutUint32(rec[HdrLen:], uint32(n))
	Seal(rec, KindBatch, seq)
}

// uvarintLen is how many bytes v takes as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// putLen writes the length of the entry after buf[at] as a uvarint into
// buf[at], the one byte reserved for it, shifting the entry when the
// length needs more — only for entries of 128 bytes and up.
func putLen(buf []byte, at int) []byte {
	var v [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(v[:], uint64(len(buf)-at-1))
	if w > 1 {
		end := len(buf)
		buf = append(buf, v[1:w]...)
		copy(buf[at+w:], buf[at+1:end])
	}
	copy(buf[at:], v[:w])
	return buf
}

// span is how many sequence numbers a record covers: one, or a batch's
// count. ok is false for a batch body its entries do not fill exactly.
// The recovery scan and Open's resume both learn a record's extent
// here, and only here.
func span(kind byte, body []byte) (n uint64, ok bool) {
	if kind != KindBatch {
		return 1, true
	}
	if len(body) < countLen {
		return 0, false
	}
	n = uint64(binary.BigEndian.Uint32(body))
	rest := body[countLen:]
	for i := uint64(0); i < n; i++ {
		if _, rest = nextEntry(rest); rest == nil {
			return 0, false
		}
	}
	return n, n > 0 && len(rest) == 0
}

// nextEntry splits the first entry off a batch's entries. rest is nil
// (not merely empty) when the length prefix is torn or overruns p.
func nextEntry(p []byte) (entry, rest []byte) {
	l, w := binary.Uvarint(p)
	if w <= 0 || l > uint64(len(p)-w) {
		return nil, nil
	}
	return p[w : w+int(l)], p[w+int(l):]
}
