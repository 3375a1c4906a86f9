// WAL replay: feed the durable event log back through the analyzer.
// Two callers share this path — gretel's boot-time crash recovery
// (replay the retained log, then go live on the same analyzer) and
// gretel-experiments' offline reanalysis ("reanalyze yesterday's
// incident with today's fingerprints").

package replay

import (
	"io"
	"time"

	"gretel/internal/core"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// WALResult is DriveWAL's summary: the usual replay accounting plus the
// recovery scan's quarantine bookkeeping.
type WALResult struct {
	Result
	Recovery wal.ReadStats
}

// WALDrive tunes one DriveWAL pass.
type WALDrive struct {
	// From and To bound the record sequences fed through the analyzer
	// (inclusive; 0 = open bound).
	From, To uint64
	// Barrier splits the replay at a record sequence: before the first
	// record with sequence > Barrier is ingested, the pending batch is
	// flushed through the analyzer and OnBarrier (if set) is invoked.
	// Boot recovery sets it to the durable consumer cursor so report
	// suppression is lifted exactly at the already-reported/unreported
	// boundary — never mid-batch, which would silently drop reports for
	// records past the cursor. 0 means no barrier.
	Barrier   uint64
	OnBarrier func()
	// OnBatch, when non-nil, is called after each ingested batch with
	// scan progress (1-based current segment, total segments, last
	// record sequence fed) — gretel's readiness endpoint serves it
	// during boot recovery.
	OnBatch func(segment, total int, lastSeq uint64)
}

// DriveWAL replays the write-ahead log at dir through the analyzer.
// Records with sequence in [opt.From, opt.To] (0 = open bound) are fed
// through IngestBatch in ingestChunk-sized batches; corrupt or torn
// records are quarantined by the reader, never fatal.
//
// The analyzer is NOT flushed or closed: boot recovery continues
// driving live events on the same analyzer (flushing here would tear
// windows mid-stream and diverge from an uninterrupted run), and
// offline reanalysis closes it when done. Reports in the result count
// only what had been produced when the scan finished.
func DriveWAL(a *core.Analyzer, dir string, opt WALDrive) (WALResult, error) {
	r, err := wal.OpenReader(dir)
	if err != nil {
		return WALResult{}, err
	}
	defer r.Close()

	batch := make([]trace.Event, 0, ingestChunk)

	start := time.Now()
	var res WALResult
	var lastSeq uint64
	flush := func() {
		if len(batch) == 0 {
			return
		}
		a.IngestBatch(batch)
		res.Events += len(batch)
		batch = batch[:0]
		if opt.OnBatch != nil {
			seg, total := r.Progress()
			opt.OnBatch(seg, total, lastSeq)
		}
	}
	crossed := opt.Barrier == 0
	for {
		seq, ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if opt.From > 0 && seq < opt.From {
			continue
		}
		if opt.To > 0 && seq > opt.To {
			break
		}
		if !crossed && seq > opt.Barrier {
			// Everything at or below the barrier must be through the
			// analyzer before the caller's barrier action (lifting report
			// suppression) takes effect for the records after it.
			flush()
			crossed = true
			if opt.OnBarrier != nil {
				opt.OnBarrier()
			}
		}
		lastSeq = seq
		res.Bytes += uint64(ev.WireBytes)
		batch = append(batch, ev)
		if len(batch) >= ingestChunk {
			flush()
		}
	}
	flush()
	res.Wall = time.Since(start)
	res.rates()
	res.Reports = len(a.Reports())
	res.SnapshotsShed = a.Stats.SnapshotsShed
	r.Close() // finalizes torn-tail attribution before the stats snapshot
	res.Recovery = r.Stats()
	return res, nil
}
