// The recovery scan: every intact record in a segment directory, in
// sequence order, the way a receiver reads a damaged wire — skip and
// count, never abort. A batch record is returned an entry at a time,
// each under its own sequence number, so the ledger counts sequence
// numbers, not envelopes. What the scan cannot return it accounts for,
// so that Records + Quarantined equals the sequence numbers ever
// written to the retained segments.

package seglog

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"
)

// ScanStats is a scan's accounting; final once Next has returned io.EOF.
type ScanStats struct {
	// Segments is the number of segment files in the scan.
	Segments int
	// Records counts the records and batch entries returned.
	Records uint64
	// Quarantined counts sequence numbers lost to damage: gaps between
	// intact records, which is all of a corrupt batch's entries, and a
	// torn tail. Trailing garbage counts as one — a torn write can only
	// lose the append it tore, and a torn batch's count cannot be
	// trusted.
	Quarantined uint64
	// Duplicates counts records and entries skipped because their
	// sequence had already been returned (a writer re-appending what a
	// tear lost can legitimately produce these).
	Duplicates uint64
	// BytesRead is the bytes of the intact records read, envelopes
	// included; BytesSkipped is the total discarded while
	// resynchronising. A scan read to its end has accounted for every
	// byte of its segments in one or the other.
	BytesRead, BytesSkipped uint64
	// TornTail reports that the log ended in unparseable bytes — the
	// signature of a crash mid-append.
	TornTail bool
	// FirstSeq and LastSeq bound the records returned (0, 0 for an empty
	// log). FirstSeq > 1 means retention has dropped history.
	FirstSeq, LastSeq uint64
}

// Scanner iterates a snapshot of the directory's segments taken when it
// was opened; a concurrent writer is safe, its new records unseen.
type Scanner struct {
	segs  []segment
	cur   int // index of the segment being read; len(segs) when done
	kinds string
	f     *os.File
	br    *bufio.Reader
	buf   []byte
	tail  int64 // bytes skipped since the last intact record
	stats ScanStats
	done  bool

	// The batch record being returned an entry at a time: its entries
	// not yet returned, how many, and the next one's sequence number.
	entries []byte
	left    uint64
	next    uint64
}

// OpenScanner starts a scan of dir. A directory that does not exist is
// an empty log: first boot recovers nothing.
func OpenScanner(dir, prefix, kinds string) (*Scanner, error) {
	segs, err := list(dir, prefix)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return &Scanner{segs: segs, kinds: kinds, stats: ScanStats{Segments: len(segs)}}, nil
}

// Progress reports the 1-based index of the segment being scanned and
// the segment count.
func (s *Scanner) Progress() (segment, total int) {
	return min(s.cur+1, len(s.segs)), len(s.segs)
}

// Stats snapshots the accounting.
func (s *Scanner) Stats() ScanStats { return s.stats }

// Next returns the next intact record, or batch entry, in sequence
// order, or io.EOF at the end of the log; damage never surfaces as an
// error. An entry comes with kind KindBatch. body is valid until the
// next call.
func (s *Scanner) Next() (kind byte, seq uint64, body []byte, err error) {
	for {
		if s.left > 0 {
			seq := s.next
			s.next++
			s.left--
			body, s.entries = nextEntry(s.entries) // cannot fail: span checked it
			if s.admit(seq) {
				return KindBatch, seq, body, nil
			}
			continue
		}
		if s.br == nil {
			if s.cur >= len(s.segs) {
				s.finish()
				return 0, 0, nil, io.EOF
			}
			f, err := os.Open(s.segs[s.cur].path)
			if err != nil {
				// Unreadable: its bytes are skipped wholesale, and what it
				// held shows as a sequence gap at the next segment.
				s.skip(s.segs[s.cur].bytes)
				s.cur++
				continue
			}
			s.f, s.br = f, bufio.NewReaderSize(f, 256<<10)
		}
		kind, seq, body, sk, err := ReadRecord(s.br, s.kinds, s.buf, File)
		s.skip(sk.Bytes)
		if err != nil {
			// The end of this segment, or a read error standing in for it.
			s.f.Close()
			s.f, s.br = nil, nil
			s.cur++
			continue
		}
		s.buf = body
		n, ok := span(kind, body)
		if !ok {
			s.skip(HdrLen + int64(len(body)))
			continue
		}
		s.stats.BytesRead += HdrLen + uint64(len(body))
		if kind == KindBatch {
			s.entries, s.left, s.next = body[countLen:], n, seq
			continue
		}
		if s.admit(seq) {
			return kind, seq, body, nil
		}
	}
}

// admit books seq as returned, or as a duplicate to skip.
func (s *Scanner) admit(seq uint64) bool {
	last := s.stats.LastSeq
	if last != 0 && seq <= last {
		s.stats.Duplicates++
		return false
	}
	if last != 0 {
		s.stats.Quarantined += seq - last - 1
	}
	if s.stats.Records == 0 {
		s.stats.FirstSeq = seq
	}
	s.stats.LastSeq = seq
	s.stats.Records++
	s.tail = 0
	return true
}

func (s *Scanner) skip(n int64) {
	s.stats.BytesSkipped += uint64(n)
	s.tail += n
}

// finish closes the ledger: bytes skipped after the last intact record
// are a torn tail, and at least one record died there.
func (s *Scanner) finish() {
	if !s.done && s.tail > 0 {
		s.stats.TornTail = true
		s.stats.Quarantined++
	}
	s.done = true
}

// Close releases the scan and finalizes its stats. Safe after io.EOF.
func (s *Scanner) Close() error {
	if s.f != nil {
		s.f.Close()
		s.f, s.br = nil, nil
	}
	s.finish()
	return nil
}
