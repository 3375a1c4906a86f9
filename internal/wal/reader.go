// Recovery reader: seglog's skip-and-count scan of the log directory,
// with the event codec on top. Torn writes, truncated tails and corrupt
// records are quarantined (counted, with their bytes skipped) and every
// event of a record whose CRC passes that decodes is returned, so
// recovery upholds the log's one invariant:
// recovered + quarantined == written.

package wal

import (
	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// ReadStats is the recovery scan's accounting, counted in events.
// Quarantined includes events of CRC-intact records that would not
// decode.
type ReadStats = seglog.ScanStats

// Reader iterates every intact event in a WAL directory in sequence
// order, a batch record's one at a time. It reads a static snapshot of
// the segment list taken at open; a concurrently appending writer is
// safe but its new records are not seen.
type Reader struct {
	sc          *seglog.Scanner
	dec         trace.Decoder // interns the scan's repeating strings
	undecodable uint64
	span        telemetry.Span
	done        bool
}

// OpenReader opens a recovery scan over the log directory. A directory
// that does not exist yet is an empty log, not an error — first boot
// recovers nothing.
func OpenReader(dir string) (*Reader, error) {
	sc, err := seglog.OpenScanner(dir, segPrefix, eventKinds)
	if err != nil {
		return nil, err
	}
	return &Reader{sc: sc, span: hReplay.Start()}, nil
}

// Progress reports the 1-based index of the segment being scanned and
// the total segment count — the "wal replay <segment>/<total>" the
// readiness endpoint serves during boot recovery.
func (r *Reader) Progress() (segment, total int) { return r.sc.Progress() }

// Stats snapshots the scan accounting. Final (including torn-tail
// attribution) once Next has returned io.EOF.
func (r *Reader) Stats() ReadStats {
	st := r.sc.Stats()
	st.Records -= r.undecodable
	st.Quarantined += r.undecodable
	return st
}

// Next returns the next intact event in sequence order, or io.EOF at
// the end of the log. Corruption never surfaces as an error: damaged
// bytes are skipped and quarantined, and the scan continues.
func (r *Reader) Next() (uint64, trace.Event, error) {
	// The decoder keeps no pointer to the event, so ev stays on the stack.
	var ev trace.Event
	seq, err := r.NextInto(&ev)
	if err != nil {
		return 0, trace.Event{}, err
	}
	return seq, ev, nil
}

// NextInto is Next decoding in place: the event lands in *ev, every
// field overwritten, so a caller filling a reused batch copies no event.
// On an error *ev is unspecified.
func (r *Reader) NextInto(ev *trace.Event) (uint64, error) {
	for {
		kind, seq, body, err := r.sc.Next()
		if err != nil {
			r.finish()
			return 0, err
		}
		if kind == seglog.KindBatch {
			kind = KindEvent // a batch's entries are event bodies
		}
		if err := r.dec.Decode(kind, body, ev); err != nil {
			// CRC-intact but undecodable: a writer-side bug, not wire
			// damage. Quarantined, not returned and not fatal.
			r.undecodable++
			continue
		}
		mRecovered.Inc()
		return seq, nil
	}
}

// finish closes out the scan and brings wal.quarantined and
// wal.bytes_skipped up to its ledger.
func (r *Reader) finish() {
	if r.done {
		return
	}
	r.done = true
	r.span.End()
	st := r.Stats()
	mQuarantined.Add(st.Quarantined)
	mBytesSkipped.Add(st.BytesSkipped)
}

// Close releases the scan. Safe after io.EOF.
func (r *Reader) Close() error {
	r.sc.Close()
	r.finish()
	return nil
}
