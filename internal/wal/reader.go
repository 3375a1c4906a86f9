// Recovery reader: scans a WAL directory the way the transport
// receiver scans a damaged wire — skip-and-count, never abort. Torn
// writes, truncated tails, and corrupt records are quarantined
// (counted, with their bytes skipped) and every record whose CRC
// passes is returned, so recovery upholds the log's one invariant:
// recovered + quarantined == written.

package wal

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"

	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// ReadStats is the recovery scan's accounting.
type ReadStats struct {
	// Segments is the number of segment files in the scan.
	Segments int
	// Records counts CRC-intact records returned.
	Records uint64
	// Quarantined counts records lost to corruption: sequence gaps
	// between intact records, undecodable bodies, and a torn tail.
	// Trailing garbage counts as (at least) one record — a torn write
	// can only lose the record it tore.
	Quarantined uint64
	// Duplicates counts intact records skipped because their sequence
	// was already seen (a resumed writer re-appending a torn record's
	// payload can legitimately produce these).
	Duplicates uint64
	// BytesSkipped is the total bytes discarded while resynchronizing.
	BytesSkipped uint64
	// TornTail reports whether the log ended in unparseable bytes —
	// the signature of a crash mid-append.
	TornTail bool
	// FirstSeq/LastSeq bound the intact records returned (0,0 when the
	// log is empty). FirstSeq > 1 means retention has dropped history.
	FirstSeq, LastSeq uint64
}

// Reader iterates every intact record in a WAL directory in sequence
// order. It reads a static snapshot of the segment list taken at open;
// a concurrently appending writer is safe but its new records are not
// seen.
type Reader struct {
	segs []segInfo
	cur  int // index into segs of the open segment (len(segs) = done)

	f  *os.File
	br *bufio.Reader

	buf         []byte
	dec         trace.Decoder // interns the scan's repeating strings
	lastSeq     uint64
	tailSkipped int64 // bytes skipped since the last intact record
	stats       ReadStats
	span        telemetry.Span
	done        bool
}

// OpenReader opens a recovery scan over the log directory. A directory
// that does not exist yet is an empty log, not an error — first boot
// recovers nothing.
func OpenReader(dir string) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	r := &Reader{segs: segs, span: hReplay.Start()}
	r.stats.Segments = len(segs)
	return r, nil
}

// Progress reports the 1-based index of the segment being scanned and
// the total segment count — the "wal replay <segment>/<total>" the
// readiness endpoint serves during boot recovery.
func (r *Reader) Progress() (segment, total int) {
	seg := r.cur + 1
	if seg > len(r.segs) {
		seg = len(r.segs)
	}
	return seg, len(r.segs)
}

// Stats snapshots the scan accounting. Final (including torn-tail
// attribution) once Next has returned io.EOF.
func (r *Reader) Stats() ReadStats { return r.stats }

// Next returns the next intact record in sequence order, or io.EOF at
// the end of the log. Corruption never surfaces as an error: damaged
// bytes are skipped and quarantined, and the scan continues.
func (r *Reader) Next() (seq uint64, ev trace.Event, err error) {
	for {
		if r.br == nil {
			if r.cur >= len(r.segs) {
				r.finish()
				return 0, trace.Event{}, io.EOF
			}
			f, err := os.Open(r.segs[r.cur].path)
			if err != nil {
				// An unreadable segment is quarantined wholesale: the gap
				// accounting on the next segment's records counts what it
				// held; here we only note the skipped bytes.
				r.stats.BytesSkipped += uint64(r.segs[r.cur].bytes)
				r.tailSkipped += r.segs[r.cur].bytes
				mBytesSkipped.Add(uint64(r.segs[r.cur].bytes))
				r.cur++
				continue
			}
			r.f = f
			r.br = bufio.NewReaderSize(f, 256<<10)
		}
		kind, recSeq, body, skipped, rerr := ReadRecord(r.br, eventKinds, r.buf)
		if skipped > 0 {
			r.stats.BytesSkipped += uint64(skipped)
			r.tailSkipped += skipped
			mBytesSkipped.Add(uint64(skipped))
		}
		if rerr != nil {
			// End of this segment; move on. Tail garbage inside a
			// non-final segment is resolved by sequence-gap accounting
			// against the next segment's records.
			r.f.Close()
			r.f, r.br = nil, nil
			r.cur++
			continue
		}
		r.buf = body
		if r.lastSeq != 0 && recSeq <= r.lastSeq {
			r.stats.Duplicates++
			continue
		}
		if err := r.dec.Decode(kind, body, &ev); err != nil {
			// CRC-intact but undecodable: a writer-side bug, not wire
			// damage. Quarantine it and advance the sequence so the gap
			// accounting does not double-count.
			r.stats.Quarantined++
			mQuarantined.Inc()
			r.lastSeq = recSeq
			r.tailSkipped = 0
			continue
		}
		if r.lastSeq != 0 && recSeq > r.lastSeq+1 {
			gap := recSeq - r.lastSeq - 1
			r.stats.Quarantined += gap
			mQuarantined.Add(gap)
		}
		if r.stats.Records == 0 {
			r.stats.FirstSeq = recSeq
		}
		r.lastSeq = recSeq
		r.stats.LastSeq = recSeq
		r.stats.Records++
		mRecovered.Inc()
		r.tailSkipped = 0
		return recSeq, ev, nil
	}
}

// finish closes out the scan: bytes skipped after the last intact
// record are a torn tail — at least one record died there.
func (r *Reader) finish() {
	if r.done {
		return
	}
	r.done = true
	r.span.End()
	if r.tailSkipped > 0 {
		r.stats.TornTail = true
		r.stats.Quarantined++
		mQuarantined.Inc()
	}
}

// Close releases the scan. Safe after io.EOF.
func (r *Reader) Close() error {
	if r.f != nil {
		r.f.Close()
		r.f, r.br = nil, nil
	}
	r.finish()
	return nil
}
