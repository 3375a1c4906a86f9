// Package wal is GRETEL's durable event plane: a segmented, append-only
// write-ahead log for captured trace events, so the evidence the
// analyzer passively observes survives the crashes it exists to
// explain. Everything else in the analyzer is rebuildable state — the
// WAL is the one thing that must not die with the process.
//
// Records reuse the PR 3 wire-frame format (internal/agent frame.go,
// wire format v2): two-byte magic, kind tag, big-endian sequence
// number, length prefix, and a CRC32 (IEEE) over header+body, followed
// by the encoded event. A WAL segment is therefore exactly a captured
// frame stream on disk, and the reader recovers it the same way the
// transport receiver resynchronizes on the wire: corruption is skipped
// and counted, never trusted and never fatal.
//
//	offset size
//	0      2    magic 0xF5 0x9E
//	2      1    kind 'B' (or 'E': legacy JSON body)
//	3      8    record sequence number, big-endian (1-based, dense)
//	11     4    body length, big-endian
//	15     4    CRC32 (IEEE) over bytes [2,15) and the body
//	19     n    trace.Event body
//
// The log always writes kind 'B', trace's binary event body (laid out
// in internal/trace/codec.go). Segments written before that body
// existed hold kind 'E' records, the same event as JSON; the reader
// decodes both, in one segment if need be.
//
// Segments are named wal-<first-seq>.seg and rotate on a size or age
// bound; retention drops whole closed segments oldest-first to hold a
// byte budget. Appends are flushed to the OS on every call — a
// kill -9 after Append returns loses nothing — while fsync (surviving
// machine crashes) is policy-controlled: none, interval, or every.
//
// The recovery invariant, proven by the crash soak: for every record
// handed to Append, recovery either returns it intact (recovered) or
// counts it as lost (quarantined) — recovered + quarantined == written.
// Silent loss is the only failure mode the log does not permit.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// WAL telemetry: append/rotation/retention on the write side,
// recovered/quarantined on the read side (the durable twin of the
// transport's delivered/missed accounting). The wal.append histogram
// times Append/AppendBatch calls — the cost the ingest path pays for
// durability — and wal.replay times full recovery scans.
var (
	mAppended     = telemetry.GetCounter("wal.appended")
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

// Record layout constants — byte-identical to the agent wire format so
// a WAL segment is a valid frame stream (tested against agent.ReadEvent).
const (
	recMagic0 = 0xF5
	recMagic1 = 0x9E
	recHdrLen = 19
	// MaxRecord bounds one encoded record, defending the reader against
	// corrupt length prefixes (same bound as agent.MaxFrame).
	MaxRecord = 1 << 22
)

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	// cursorFile holds the durable consumer cursor: the highest record
	// sequence the analyzer has fully processed. Written atomically
	// (tmp + rename) so a crash never leaves a torn cursor.
	cursorFile = "CURSOR"
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
	// FsyncEvery calls fsync on every Append/AppendBatch: nothing acked
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
	// SegmentAge rotates a non-empty active segment older than this,
	// so retention can expire quiet periods too (0 disables).
	SegmentAge time.Duration
	// Fsync is the durability policy (default FsyncInterval).
	Fsync Fsync
	// FsyncInterval is the FsyncInterval policy's flush period
	// (default 100ms).
	FsyncInterval time.Duration
	// RetainBytes drops closed segments oldest-first once the log
	// exceeds this budget (default 1 GiB; negative retains everything).
	RetainBytes int64
	// CursorEvery persists the consumer cursor after this many
	// MarkProcessed advances (default 4096; it is always persisted on
	// Sync and Close).
	CursorEvery uint64
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
	if o.CursorEvery == 0 {
		o.CursorEvery = 4096
	}
}

// Stats is a point-in-time view of the log's write-side accounting.
type Stats struct {
	// Appended counts records acked by Append/AppendBatch this session.
	Appended uint64
	// Synced counts fsync calls; Rotated counts segment rotations;
	// Retired counts whole segments dropped by retention.
	Synced, Rotated, Retired uint64
	// Segments is the current on-disk segment count (active included);
	// Bytes is their total size.
	Segments int
	Bytes    int64
}

// segInfo is one on-disk segment the log tracks for retention.
type segInfo struct {
	path     string
	firstSeq uint64
	bytes    int64
}

// Log is the append side. All methods are safe for a single writer
// goroutine (the analyzer's ingest goroutine); Append never reorders —
// record sequence numbers are dense and monotonically increasing.
type Log struct {
	opts Options

	segs     []segInfo // closed segments, oldest first
	f        *os.File
	bw       *bufio.Writer
	active   segInfo
	openedAt time.Time
	lastSync time.Time

	nextSeq uint64 // last assigned record sequence
	scratch []byte

	cursor          uint64 // highest record seq marked processed
	cursorPersisted uint64

	stats Stats
}

// segName renders the canonical segment file name for a first sequence.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

// parseSegName extracts the first sequence from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segments sorted by first
// sequence (which is also creation order).
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, e.Name()), firstSeq: first, bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// Open opens (or creates) the log at opts.Dir for appending. Existing
// segments are preserved: the writer scans backwards for the last
// intact record and continues the sequence after it, always starting a
// fresh segment — it never appends to a file a crash may have torn.
// Trailing segments holding no intact record at all (a crash tore
// their first append) are removed so the next segment's name cannot
// collide with them.
func Open(opts Options) (*Log, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", opts.Dir, err)
	}
	l := &Log{opts: opts}
	// Resume the sequence after the last intact record on disk.
	resume := -1 // index of the newest segment holding an intact record
	for i := len(segs) - 1; i >= 0; i-- {
		last, ok, err := lastGoodSeq(segs[i].path)
		if err != nil {
			return nil, err
		}
		if ok {
			l.nextSeq = last
			resume = i
			break
		}
	}
	// Segments newer than the resume point hold no intact record: a
	// crash tore their very first append (or created them and died
	// before any write). They must go, or openSegment's next file name
	// — segName(nextSeq+1), exactly the torn segment's name — would
	// collide on O_EXCL and fail every future append. Recovery returns
	// nothing from them (any scan before this Open has counted their
	// ink as a torn tail), and removal makes the torn sequence get
	// reused by the next append exactly as it is after a mid-segment
	// tear, keeping sequences dense.
	for _, s := range segs[resume+1:] {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("wal: removing recordless segment %s: %w", s.path, err)
		}
		telemetry.LogFirst("wal.recordless", "wal: dropped recordless torn segment %s (%d bytes)", s.path, s.bytes)
	}
	l.segs = segs[:resume+1]
	l.stats.Segments = len(l.segs)
	for _, s := range l.segs {
		l.stats.Bytes += s.bytes
	}
	l.cursor = loadCursor(opts.Dir)
	if l.cursor > l.nextSeq {
		// The cursor can run ahead of the durable log when the final
		// record was torn after being processed; clamp so MarkProcessed
		// stays monotonic against replayed sequences.
		l.cursor = l.nextSeq
	}
	l.cursorPersisted = l.cursor
	return l, nil
}

// lastGoodSeq scans one segment for its last CRC-intact record.
func lastGoodSeq(path string) (uint64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var (
		last  uint64
		found bool
		buf   []byte
	)
	for {
		_, seq, body, _, err := ReadRecord(br, eventKinds, buf)
		if err != nil {
			break
		}
		last, found, buf = seq, true, body
	}
	return last, found, nil
}

// LastSeq returns the highest record sequence acked so far.
func (l *Log) LastSeq() uint64 { return l.nextSeq }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Stats snapshots the write-side accounting.
func (l *Log) Stats() Stats { return l.stats }

// Cursor returns the durable consumer cursor loaded at Open and
// advanced by MarkProcessed: the highest record sequence the consumer
// has fully processed.
func (l *Log) Cursor() uint64 { return l.cursor }

// Append encodes and appends one event, returning its record sequence.
// The record is flushed to the OS before Append returns (a process kill
// after the ack loses nothing); fsync follows the configured policy.
func (l *Log) Append(ev trace.Event) (uint64, error) {
	return l.AppendBatch([]trace.Event{ev})
}

// AppendBatch appends a batch of events as consecutive records with one
// flush (and at most one fsync), returning the last record sequence.
// On error the batch may be partially durable; the sequence reflects
// only what was acked, and recovery quarantines any torn remainder.
func (l *Log) AppendBatch(evs []trace.Event) (uint64, error) {
	if len(evs) == 0 {
		return l.nextSeq, nil
	}
	span := hAppend.Start()
	defer span.End()
	l.scratch = l.scratch[:0]
	for i := range evs {
		// Encode straight into the batch buffer after a reserved header,
		// then seal the record in place.
		start := len(l.scratch)
		l.scratch = trace.AppendEvent(append(l.scratch, recHdrZero[:]...), &evs[i])
		rec := l.scratch[start:]
		if n := len(rec) - recHdrLen; n > MaxRecord {
			// The reader unconditionally skips any length prefix over
			// MaxRecord, so acking this record would make it durable but
			// unrecoverable — refuse the whole batch before any byte of
			// it is written.
			mAppendErrors.Inc()
			return l.nextSeq, fmt.Errorf("wal: encoded event is %d bytes, over the %d-byte record bound", n, MaxRecord)
		}
		sealRecord(rec, KindEvent, l.nextSeq+uint64(i)+1)
	}
	if err := l.rotateIfDue(int64(len(l.scratch))); err != nil {
		mAppendErrors.Inc()
		return l.nextSeq, err
	}
	if _, err := l.bw.Write(l.scratch); err != nil {
		mAppendErrors.Inc()
		return l.nextSeq, fmt.Errorf("wal: appending: %w", err)
	}
	if err := l.bw.Flush(); err != nil {
		mAppendErrors.Inc()
		return l.nextSeq, fmt.Errorf("wal: flushing: %w", err)
	}
	l.nextSeq += uint64(len(evs))
	l.active.bytes += int64(len(l.scratch))
	l.stats.Bytes += int64(len(l.scratch))
	l.stats.Appended += uint64(len(evs))
	mAppended.Add(uint64(len(evs)))
	switch l.opts.Fsync {
	case FsyncEvery:
		return l.nextSeq, l.fsync()
	case FsyncInterval:
		if time.Since(l.lastSync) >= l.opts.FsyncInterval {
			return l.nextSeq, l.fsync()
		}
	}
	return l.nextSeq, nil
}

// rotateIfDue opens the first segment lazily and rotates when the
// active segment would exceed the size bound or has exceeded the age
// bound. need is the byte size of the write about to happen.
func (l *Log) rotateIfDue(need int64) error {
	if l.f != nil {
		over := l.active.bytes > 0 && l.active.bytes+need > l.opts.SegmentBytes
		aged := l.opts.SegmentAge > 0 && l.active.bytes > 0 && time.Since(l.openedAt) >= l.opts.SegmentAge
		if !over && !aged {
			return nil
		}
		if err := l.closeActive(); err != nil {
			return err
		}
		l.stats.Rotated++
		mRotated.Inc()
		l.retain()
	}
	return l.openSegment()
}

// openSegment creates the next active segment, named for the first
// sequence it will hold.
func (l *Log) openSegment() error {
	name := segName(l.nextSeq + 1)
	path := filepath.Join(l.opts.Dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	l.f = f
	var w io.Writer = f
	if l.opts.WrapWriter != nil {
		w = l.opts.WrapWriter(f)
	}
	l.bw = bufio.NewWriterSize(w, 64<<10)
	l.active = segInfo{path: path, firstSeq: l.nextSeq + 1}
	l.openedAt = time.Now()
	l.stats.Segments++
	return nil
}

// closeActive flushes, fsyncs, and closes the active segment, moving it
// to the closed list. Closed segments are always fsynced — whatever the
// append policy, a rotated-away segment is finished evidence.
func (l *Log) closeActive() error {
	if l.f == nil {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flushing %s: %w", l.active.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.active.path, err)
	}
	l.stats.Synced++
	mSynced.Inc()
	l.lastSync = time.Now()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", l.active.path, err)
	}
	l.segs = append(l.segs, l.active)
	l.f, l.bw = nil, nil
	return nil
}

// retain enforces the byte budget by unlinking closed segments
// oldest-first. The active segment is never touched: retention can
// only drop finished history, not in-flight capture.
func (l *Log) retain() {
	if l.opts.RetainBytes < 0 {
		return
	}
	for len(l.segs) > 0 && l.stats.Bytes > l.opts.RetainBytes {
		old := l.segs[0]
		if err := os.Remove(old.path); err != nil {
			telemetry.LogFirst("wal.retain", "wal: dropping %s: %v", old.path, err)
			return
		}
		l.segs = l.segs[1:]
		l.stats.Bytes -= old.bytes
		l.stats.Segments--
		l.stats.Retired++
		mRetired.Inc()
	}
}

// fsync forces the active segment to disk.
func (l *Log) fsync() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		mAppendErrors.Inc()
		return fmt.Errorf("wal: fsync %s: %w", l.active.path, err)
	}
	l.stats.Synced++
	mSynced.Inc()
	l.lastSync = time.Now()
	return nil
}

// Sync flushes and fsyncs the active segment and persists the cursor —
// a durability barrier callers can place wherever they need one.
func (l *Log) Sync() error {
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			return fmt.Errorf("wal: flushing: %w", err)
		}
	}
	if err := l.fsync(); err != nil {
		return err
	}
	return l.saveCursor()
}

// MarkProcessed advances the durable consumer cursor: every record at
// or below seq has been fully processed by the consumer, so a restart
// may treat them as already-reported history. The cursor is persisted
// every Options.CursorEvery advances and on Sync/Close; report
// emission across a crash boundary is therefore at-least-once, while
// the log itself stays exactly-once.
func (l *Log) MarkProcessed(seq uint64) {
	if seq <= l.cursor {
		return
	}
	l.cursor = seq
	if l.cursor-l.cursorPersisted >= l.opts.CursorEvery {
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

// Close flushes, fsyncs, persists the cursor, and closes the log.
func (l *Log) Close() error {
	var firstErr error
	if err := l.saveCursor(); err != nil {
		firstErr = err
	}
	if err := l.closeActive(); err != nil && firstErr == nil {
		firstErr = err
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

// RemoveCursor deletes the persisted cursor, turning the next boot
// replay into a full from-scratch reanalysis. Missing cursors are not
// an error.
func RemoveCursor(dir string) error {
	err := os.Remove(filepath.Join(dir, cursorFile))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
