// WAL replay: feed the durable event log back through the analyzer.
// Two callers share this path — gretel's boot-time crash recovery
// (replay the retained log, then go live on the same analyzer) and
// `gretel experiments`' offline reanalysis ("reanalyze yesterday's
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

// walBatches bounds DriveWAL's read-ahead: one batch being ingested, up
// to four queued, one being filled. The queue keeps the caller busy while
// a reader woken by a recycled batch waits for a processor, which on a
// shared two-core VM can take longer than ingesting a batch. The reader
// allocates batches as it first needs them, then recycles them.
const walBatches = 6

// walBatch is one IngestBatch hand-off from DriveWAL's reader: the
// first n of its slots, records decoded in place, and the scan state at
// the moment it was cut.
type walBatch struct {
	slots          []trace.Event // ingestChunk of them
	n              int
	bytes          uint64 // wire bytes of the n events
	lastSeq        uint64 // sequence of the last event
	segment, total int    // Reader.Progress when the batch was cut
	// barrier: OnBarrier fires once the n events (maybe none) are ingested.
	barrier bool
}

// DriveWAL replays the write-ahead log at dir through the analyzer.
// Records with sequence in [opt.From, opt.To] (0 = open bound) are fed
// through IngestBatch in ingestChunk-sized batches; corrupt or torn
// records are quarantined by the reader, never fatal.
//
// It runs in two stages, like a Receiver feeding DriveTransport. A
// reader goroutine scans, checks and decodes the log into recycled
// batches, at most walBatches ahead, cutting them where a one-goroutine
// loop would flush: every ingestChunk records, before the first record
// past Barrier, and at To or the end of the log, where it stops and
// closes the scan. The calling goroutine does the rest — IngestBatch,
// OnBatch, then OnBarrier if the batch ends at the barrier — in log
// order, so the analyzer keeps a single caller. DriveWAL returns after
// the reader has finished.
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
	start := time.Now()
	full, free := make(chan *walBatch, walBatches), make(chan *walBatch, walBatches)
	stop := make(chan struct{})
	var readErr error
	go func() {
		defer close(full)
		readErr = readAhead(r, opt, full, free, stop)
		r.Close() // finalizes torn-tail attribution before the stats snapshot
	}()
	defer func() {
		// Normally a no-op; if the caller panicked, unblock the reader and
		// wait for it.
		close(stop)
		for range full {
		}
	}()

	var res WALResult
	for b := range full {
		if b.n > 0 {
			a.IngestBatch(b.slots[:b.n])
			res.Events += b.n
			res.Bytes += b.bytes
			if opt.OnBatch != nil {
				opt.OnBatch(b.segment, b.total, b.lastSeq)
			}
		}
		if b.barrier && opt.OnBarrier != nil {
			// Everything at or below the barrier is through the analyzer
			// before the caller's barrier action (lifting report
			// suppression) takes effect for the records after it.
			opt.OnBarrier()
		}
		free <- b
	}
	if readErr != nil {
		return res, readErr
	}
	res.Wall = time.Since(start)
	res.rates()
	res.Reports = len(a.Reports())
	res.SnapshotsShed = a.Stats.SnapshotsShed
	res.Recovery = r.Stats()
	return res, nil
}

// readAhead is DriveWAL's reader stage: it decodes records in place into
// batches taken from free and sends each cut batch on full. It returns at
// the end of the window or the log, on a read error (after sending only
// the batches cut before it), or when stop closes. A send never blocks:
// full has room for every batch there is.
func readAhead(r *wal.Reader, opt WALDrive, full chan<- *walBatch, free chan *walBatch, stop <-chan struct{}) error {
	made := 0
	take := func() *walBatch {
		if made < walBatches && len(free) == 0 {
			made++
			return &walBatch{slots: make([]trace.Event, ingestChunk)}
		}
		select {
		case b := <-free:
			*b = walBatch{slots: b.slots}
			return b
		case <-stop:
			return nil
		}
	}
	send := func(b *walBatch) {
		b.segment, b.total = r.Progress()
		full <- b
	}

	crossed := opt.Barrier == 0
	for b := take(); b != nil; {
		seq, err := r.NextInto(&b.slots[b.n])
		if err == nil && opt.To > 0 && seq > opt.To {
			err = io.EOF // the window ends here: read no further
		}
		if err == io.EOF {
			if b.n > 0 {
				send(b)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if opt.From > 0 && seq < opt.From {
			continue
		}
		if !crossed && seq > opt.Barrier {
			crossed, b.barrier = true, true
			ev := b.slots[b.n]
			send(b)
			if b = take(); b == nil {
				return nil
			}
			b.slots[0] = ev
		}
		b.bytes += uint64(b.slots[b.n].WireBytes)
		b.lastSeq = seq
		if b.n++; b.n == ingestChunk {
			send(b)
			b = take()
		}
	}
	return nil
}
