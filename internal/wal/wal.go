// Package wal is GRETEL's durable event plane: a segmented, append-only
// write-ahead log for captured trace events, so the evidence the
// analyzer passively observes survives the crashes it exists to
// explain. Everything else in the analyzer is rebuildable state — the
// WAL is the one thing that must not die with the process.
//
// The log is internal/seglog — its envelope, its segment lifecycle, its
// recovery scan — under batch records of event bodies: each AppendBatch
// is sealed as one seglog batch record (kind 'R': an event count, then
// each event's trace binary body, laid out in internal/trace/codec.go,
// behind a uvarint length), split only where a record's body passes
// seglog.BatchBytes. AppendRecord writes a record a caller already laid
// out — the receiver's verified wire bodies — without encoding its
// events again; the two give the same bytes for the same bodies. A
// record carries a run of dense sequence numbers, its header's first,
// and the Reader returns its events one at a time under them, so a consumer sees the same event stream as when every
// event was a record of its own. Logs of that older layout (kind 'B',
// one event per record) still recover, in one segment with batches if
// need be. Kind 'E', the JSON body logs wrote before that, is not read:
// a scan skips its bytes and counts its sequence numbers as
// quarantined. This package owns what goes in the records and beside
// them: the event codec and the consumer cursor.
//
// Segments are named wal-<first-seq>.seg and rotate on a size bound;
// retention drops whole closed segments oldest-first to hold a
// byte budget. Appends reach the OS on every call — a kill -9 after
// an append returns loses nothing — while fsync (surviving machine crashes)
// is policy-controlled: none, interval, or every. An I/O error costs the
// append that met it and the rest of its segment, never the log: the
// next append starts a fresh segment.
//
// The recovery invariant, proven by the crash soak: for every event
// handed to an append, recovery either returns it intact (recovered) or
// counts it as lost (quarantined) — recovered + quarantined == written.
// A record that fails its CRC costs all of its events, counted through
// the sequence gap it leaves. Silent loss is the only failure mode the
// log does not permit.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// WAL telemetry: append/rotation/retention on the write side,
// recovered/quarantined on the read side (the durable twin of the
// transport's delivered/missed accounting). The wal.append histogram
// times AppendBatch/AppendRecord calls — the cost the ingest path pays for
// durability — and wal.replay times full recovery scans.
var (
	mAppended     = telemetry.GetCounter("wal.appended")
	mRecords      = telemetry.GetCounter("wal.records") // wal.appended / wal.records: events per record
	mAppendErrors = telemetry.GetCounter("wal.append_errors")
	mSynced       = telemetry.GetCounter("wal.synced")
	mRotated      = telemetry.GetCounter("wal.rotated")
	mRetired      = telemetry.GetCounter("wal.segments_retired")
	mRecovered    = telemetry.GetCounter("wal.recovered")
	mQuarantined  = telemetry.GetCounter("wal.quarantined")
	mBytesSkipped = telemetry.GetCounter("wal.bytes_skipped")
	mCursorSaves  = telemetry.GetCounter("wal.cursor_saves")
	hAppend       = telemetry.GetHistogram("wal.append")
	hReplay       = telemetry.GetHistogram("wal.replay")
)

// MaxRecord bounds one encoded record (same bound as agent.MaxFrame):
// an event too large for a record of its own is refused.
const MaxRecord = seglog.MaxRecord

const (
	// KindEvent is the kind of the one-event records older logs wrote,
	// still read. The log writes seglog.KindBatch records of events; any
	// other kind — the 'E' of the JSON body included — is bytes for a
	// scan to skip and count.
	KindEvent  = trace.BodyBinary
	eventKinds = string(KindEvent) + string(seglog.KindBatch)

	segPrefix = "wal-"
	// cursorFile holds the durable consumer cursor: the highest record
	// sequence the analyzer has fully processed. Written atomically
	// (tmp + rename) so a crash never leaves a torn cursor.
	cursorFile = "CURSOR"
	// cursorEvery is how many MarkProcessed advances persist the cursor
	// (it is always persisted on Sync and Close).
	cursorEvery = 4096
)

// Fsync selects the durability policy for appends.
type Fsync uint8

const (
	// FsyncNone never calls fsync: appends are flushed to the OS (they
	// survive a process kill) but a machine crash can lose the page
	// cache. The fastest policy.
	FsyncNone Fsync = iota
	// FsyncInterval calls fsync at most once per Options.FsyncInterval,
	// bounding machine-crash loss to that window.
	FsyncInterval
	// FsyncEvery calls fsync on every append: nothing acked
	// is ever lost, at one disk flush per call.
	FsyncEvery
)

// String implements fmt.Stringer.
func (f Fsync) String() string {
	switch f {
	case FsyncNone:
		return "none"
	case FsyncInterval:
		return "interval"
	case FsyncEvery:
		return "every"
	default:
		return fmt.Sprintf("fsync(%d)", uint8(f))
	}
}

// ParseFsync resolves a policy name ("none", "interval", "every").
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "none":
		return FsyncNone, nil
	case "interval":
		return FsyncInterval, nil
	case "every":
		return FsyncEvery, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want none, interval, or every)", s)
}

// Options tunes the log. The zero value (plus Dir) is production-ready.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 8 MiB).
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync Fsync
	// FsyncInterval is the FsyncInterval policy's flush period
	// (default 100ms).
	FsyncInterval time.Duration
	// RetainBytes drops closed segments oldest-first once the log
	// exceeds this budget (default 1 GiB; negative retains everything).
	RetainBytes int64
	// WrapWriter, when set, wraps the segment file before the buffered
	// writer — the chaos tests inject torn writes, short writes, and
	// bit flips here. Sync still reaches the underlying file.
	WrapWriter func(io.Writer) io.Writer
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.RetainBytes == 0 {
		o.RetainBytes = 1 << 30
	}
}

// Stats is a point-in-time view of the log's write-side accounting:
// the segment log's (fsyncs, rotations, segments retired by retention,
// on-disk footprint with the active segment included), and Appended,
// the events acked by AppendBatch/AppendRecord this session.
type Stats struct {
	Appended uint64
	seglog.Stats
}

// Log is the append side. All methods are safe for a single writer
// goroutine (the analyzer's ingest goroutine); appends never reorder —
// record sequence numbers are dense and monotonically increasing.
type Log struct {
	opts    Options
	seg     *seglog.Log
	seen    seglog.Stats // what the wal.* counters have been told
	scratch []byte

	cursor          uint64 // highest record seq marked processed
	cursorPersisted uint64

	appended uint64
}

// Open opens (or creates) the log at opts.Dir for appending. Existing
// segments are preserved and the sequence continues after the last
// intact record, always in a fresh segment (seglog.Open has the rules).
func Open(opts Options) (*Log, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	sync := opts.FsyncInterval
	switch opts.Fsync {
	case FsyncNone:
		sync = -1
	case FsyncEvery:
		sync = 0
	}
	seg, err := seglog.Open(seglog.Options{
		Dir: opts.Dir, Prefix: segPrefix, Kinds: eventKinds,
		SegmentBytes: opts.SegmentBytes,
		SyncInterval: sync, RetainBytes: opts.RetainBytes, WrapWriter: opts.WrapWriter,
	})
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if n := seg.Stats().Dropped; n > 0 {
		telemetry.LogFirst("wal.recordless", "wal: dropped %d recordless torn segment(s) from %s", n, opts.Dir)
	}
	l := &Log{opts: opts, seg: seg, seen: seg.Stats()}
	// The cursor can run ahead of the durable log when the final record
	// was torn after being processed; clamp so MarkProcessed stays
	// monotonic against replayed sequences.
	l.cursor = min(loadCursor(opts.Dir), seg.LastSeq())
	l.cursorPersisted = l.cursor
	return l, nil
}

// publish brings the wal.* counters up to the segment log's accounting.
func (l *Log) publish() {
	st := l.seg.Stats()
	if st == l.seen {
		return
	}
	mSynced.Add(st.Synced - l.seen.Synced)
	mRotated.Add(st.Rotated - l.seen.Rotated)
	mRetired.Add(st.Retired - l.seen.Retired)
	if st.RetainErrors > l.seen.RetainErrors {
		telemetry.LogFirst("wal.retain", "wal: retention cannot unlink its oldest segment in %s", l.opts.Dir)
	}
	l.seen = st
}

// LastSeq returns the highest record sequence acked so far.
func (l *Log) LastSeq() uint64 { return l.seg.LastSeq() }

// Stats snapshots the write-side accounting.
func (l *Log) Stats() Stats { return Stats{l.appended, l.seg.Stats()} }

// Cursor returns the durable consumer cursor loaded at Open and
// advanced by MarkProcessed: the highest record sequence the consumer
// has fully processed.
func (l *Log) Cursor() uint64 { return l.cursor }

// AppendBatch appends a batch of events, numbered consecutively, as one
// batch record (more if it passes seglog.BatchBytes) with one flush and
// at most one fsync, returning the last sequence number. The records
// reach the OS before AppendBatch returns (a process kill after the ack
// loses nothing); fsync follows the configured policy. On error the
// batch may be partially durable; the sequence reflects only what was
// acked, and recovery quarantines any torn remainder.
func (l *Log) AppendBatch(evs []trace.Event) (uint64, error) {
	if len(evs) == 0 {
		return l.seg.LastSeq(), nil
	}
	span := hAppend.Start()
	defer span.End()
	records, err := l.encode(evs)
	return l.write(l.scratch, len(evs), records, err)
}

// AppendRecord appends n events whose bodies are already laid out as one
// batch record: seglog.StartBatch's room, then n entries (AppendEntry),
// each an event's trace binary body. It seals rec in place under the
// log's own next sequence number and writes it as it is — the bodies a
// receiver verified, not a second encoding of their events — with the
// flush, fsync, MaxRecord bound, accounting and errors of AppendBatch.
func (l *Log) AppendRecord(rec []byte, n int) (uint64, error) {
	if n == 0 {
		return l.seg.LastSeq(), nil
	}
	span := hAppend.Start()
	defer span.End()
	err := refuse(len(rec) - seglog.HdrLen)
	if err == nil {
		seglog.SealBatch(rec, n, l.seg.LastSeq()+1)
	}
	return l.write(rec, n, 1, err)
}

// encode lays evs out in l.scratch as sealed batch records, numbered
// from the next sequence, and returns how many records they took.
func (l *Log) encode(evs []trace.Event) (records int, err error) {
	l.scratch = l.scratch[:0]
	next := l.seg.LastSeq() + 1
	for i := 0; i < len(evs); records++ {
		// Encode straight into the batch buffer, behind the record's
		// reserved header; seglog seals it in place.
		start := len(l.scratch)
		var n int
		l.scratch, n = seglog.AppendBatch(l.scratch, next+uint64(i), len(evs)-i, func(buf []byte, j int) []byte {
			return trace.AppendEvent(buf, &evs[i+j])
		})
		if err := refuse(len(l.scratch) - start - seglog.HdrLen); err != nil {
			return records, err
		}
		i += n
	}
	return records, nil
}

// refuse rejects a record body over MaxRecord before any byte of its
// append is written: the reader unconditionally skips such a length
// prefix, so acking the record would make it durable but unrecoverable.
func refuse(size int) error {
	if size > MaxRecord {
		return fmt.Errorf("encoded event makes a %d-byte record, over the %d-byte bound", size, MaxRecord)
	}
	return nil
}

// write appends records holding n events, unless laying them out
// failed (err), books what was acked, and returns the last sequence.
func (l *Log) write(recs []byte, n, records int, err error) (uint64, error) {
	if err == nil {
		var acked int
		acked, err = l.seg.Append(recs, n)
		if acked > 0 {
			mRecords.Add(uint64(records))
		}
		l.appended += uint64(acked)
		mAppended.Add(uint64(acked))
	}
	l.publish()
	if err != nil {
		mAppendErrors.Inc()
		return l.seg.LastSeq(), fmt.Errorf("wal: %w", err)
	}
	return l.seg.LastSeq(), nil
}

// Sync fsyncs the active segment and persists the cursor —
// a durability barrier callers can place wherever they need one.
func (l *Log) Sync() error {
	err := l.seg.Sync()
	l.publish()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.saveCursor()
}

// MarkProcessed advances the durable consumer cursor: every record at
// or below seq has been fully processed by the consumer, so a restart
// may treat them as already-reported history. The cursor is persisted
// every cursorEvery advances and on Sync/Close; report
// emission across a crash boundary is therefore at-least-once, while
// the log itself stays exactly-once.
func (l *Log) MarkProcessed(seq uint64) {
	if seq <= l.cursor {
		return
	}
	l.cursor = seq
	if l.cursor-l.cursorPersisted >= cursorEvery {
		if err := l.saveCursor(); err != nil {
			telemetry.LogFirst("wal.cursor", "wal: persisting cursor: %v", err)
		}
	}
}

// saveCursor writes the cursor atomically (tmp + rename).
func (l *Log) saveCursor() error {
	if l.cursor == l.cursorPersisted {
		return nil
	}
	if err := saveCursor(l.opts.Dir, l.cursor); err != nil {
		return err
	}
	l.cursorPersisted = l.cursor
	mCursorSaves.Inc()
	return nil
}

// Close fsyncs, persists the cursor, and closes the log.
func (l *Log) Close() error {
	firstErr := l.saveCursor()
	err := l.seg.Close()
	l.publish()
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("wal: %w", err)
	}
	return firstErr
}

// loadCursor reads the persisted consumer cursor (0 when absent or
// unreadable — recovery then replays the whole retained log, which is
// always safe).
func loadCursor(dir string) uint64 {
	b, err := os.ReadFile(filepath.Join(dir, cursorFile))
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// saveCursor atomically persists a consumer cursor value for dir.
func saveCursor(dir string, seq uint64) error {
	path := filepath.Join(dir, cursorFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(seq, 10)+"\n"), 0o644); err != nil {
		return fmt.Errorf("wal: writing cursor: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: committing cursor: %w", err)
	}
	return nil
}

// LoadCursor reads dir's persisted consumer cursor without opening the
// log — boot recovery decides report suppression from it before the
// writer exists (0 when absent: replay everything, report everything).
func LoadCursor(dir string) uint64 { return loadCursor(dir) }
