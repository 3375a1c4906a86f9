// The segment directory: append-only files named <prefix><first
// sequence>.seg, one active, the rest closed. Every rule that decides
// whether an acked record survives lives here, once: a reopened log
// resumes after the last intact record and never appends to a file a
// crash may have torn; a write error abandons the segment instead of
// latching; a segment is only ever unlinked by retention or because it
// was read to its end and held nothing.

package seglog

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
)

const segSuffix = ".seg"

// Options configures a Log. The WAL sets these to constants where it
// does not pass its own options through.
type Options struct {
	Dir    string // created if missing
	Prefix string // segment files are <Prefix><first seq, 20 digits>.seg
	Kinds  string // record kinds the resume scan accepts
	// SegmentBytes rotates the active segment before an append that
	// would take it past this size.
	SegmentBytes int64
	// SyncInterval is the fsync policy: an append fsyncs when the last
	// fsync is at least this long ago — 0 is every append, negative
	// never. Every append reaches the OS before it is acked (a process
	// kill loses nothing); fsync is what survives the machine. A closed
	// segment is always fsynced.
	SyncInterval time.Duration
	// RetainBytes unlinks closed segments oldest-first while the log is
	// larger; negative retains everything. The active segment is never
	// touched: retention drops finished history, not capture in flight.
	RetainBytes int64
	// WrapWriter, when set, wraps each segment file for writing — where
	// the chaos tests tear, shorten and corrupt writes. Sync still
	// reaches the file itself.
	WrapWriter func(io.Writer) io.Writer
}

// Stats is the log's write-side accounting.
type Stats struct {
	Synced, Rotated, Retired uint64
	// Abandoned counts segments given up after a write or fsync error;
	// RetainErrors counts retention passes stopped by a failed unlink
	// (retried at the next rotation).
	Abandoned, RetainErrors uint64
	// Dropped counts recordless trailing segments Open removed.
	Dropped int
	// Segments and Bytes are the on-disk footprint, active included.
	Segments int
	Bytes    int64
}

type segment struct {
	path  string
	first uint64
	bytes int64
}

// Log is the append side, for one writer goroutine. Sequence numbers
// are dense and increasing.
type Log struct {
	o      Options
	closed []segment // oldest first
	f      *os.File  // nil until the first append after Open or a rotation
	w      io.Writer
	active segment
	synced time.Time
	last   uint64
	stats  Stats
}

// SegmentName is the file name of the segment whose first record is seq.
func SegmentName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%020d%s", prefix, seq, segSuffix)
}

// list returns dir's segments in sequence (which is creation) order.
func list(dir, prefix string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(name[len(prefix):len(name)-len(segSuffix)], 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // unlinked since ReadDir
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: first, bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Open opens (or creates) the log in o.Dir. Existing segments are kept
// and the sequence resumes after the newest intact record. Segments
// newer than that record hold nothing — a crash tore their first append
// — and carry the name the next segment needs, so they are removed; the
// sequence they tore is reused, as after a tear in mid-segment. A
// segment that cannot be read is an error, never a removal.
func Open(o Options) (*Log, error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: creating %s: %w", o.Dir, err)
	}
	segs, err := list(o.Dir, o.Prefix)
	if err != nil {
		return nil, fmt.Errorf("seglog: listing %s: %w", o.Dir, err)
	}
	l := &Log{o: o}
	keep := 0
	for i := len(segs) - 1; i >= 0 && keep == 0; i-- {
		seq, ok, err := lastIntact(segs[i].path, o.Kinds)
		if err != nil {
			return nil, err
		}
		if ok {
			l.last, keep = seq, i+1
		}
	}
	for _, s := range segs[keep:] {
		if err := os.Remove(s.path); err != nil {
			return nil, fmt.Errorf("seglog: removing recordless segment: %w", err)
		}
		l.stats.Dropped++
	}
	l.closed = segs[:keep]
	l.stats.Segments = keep
	for _, s := range l.closed {
		l.stats.Bytes += s.bytes
	}
	return l, nil
}

// lastIntact reads one segment to its end for the last sequence number
// an intact record in it covers.
func lastIntact(path, kinds string) (seq uint64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("seglog: resuming: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var buf []byte
	for {
		kind, s, body, _, err := ReadRecord(br, kinds, buf, File)
		if err == io.EOF {
			return seq, ok, nil
		}
		if err != nil {
			return 0, false, fmt.Errorf("seglog: resuming: reading %s: %w", path, err)
		}
		buf = body
		if n, intact := span(kind, body); intact {
			seq, ok = s+n-1, true
		}
	}
}

// LastSeq is the highest sequence number acked so far.
func (l *Log) LastSeq() uint64 { return l.last }

// Stats snapshots the accounting.
func (l *Log) Stats() Stats { return l.stats }

// Append writes recs — sealed records covering the n sequence numbers
// LastSeq()+1 onward — with one write, then fsyncs as the policy says.
// acked is n once the write has reached the OS and 0 before; an error
// with acked == n is the fsync's. Any error abandons the segment, and the next Append starts a
// fresh one.
func (l *Log) Append(recs []byte, n int) (acked int, err error) {
	need := int64(len(recs))
	if l.f != nil && l.active.bytes+need > l.o.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if l.f == nil {
		if err := l.create(); err != nil {
			return 0, err
		}
	}
	if m, err := l.w.Write(recs); err != nil || m < len(recs) {
		if err == nil {
			err = io.ErrShortWrite
		}
		path := l.active.path
		l.abandon(n)
		return 0, fmt.Errorf("seglog: appending to %s: %w", path, err)
	}
	l.last += uint64(n)
	l.active.bytes += need
	l.stats.Bytes += need
	if l.o.SyncInterval >= 0 && time.Since(l.synced) >= l.o.SyncInterval {
		return n, l.Sync()
	}
	return n, nil
}

// create opens the next active segment, named for the first sequence it
// will hold. O_EXCL: an existing file of that name is a bug in resume,
// not something to append to.
func (l *Log) create() error {
	path := filepath.Join(l.o.Dir, SegmentName(l.o.Prefix, l.last+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: creating segment: %w", err)
	}
	l.f, l.w = f, f
	if l.o.WrapWriter != nil {
		l.w = l.o.WrapWriter(f)
	}
	l.active = segment{path: path, first: l.last + 1}
	l.stats.Segments++
	return nil
}

// release closes the active file and files the segment: with acked
// records it joins the closed list, without any it is unlinked so the
// next segment can take its name.
func (l *Log) release() error {
	err := l.f.Close()
	if l.active.bytes > 0 {
		l.closed = append(l.closed, l.active)
	} else {
		os.Remove(l.active.path)
		l.stats.Segments--
	}
	l.f, l.w = nil, nil
	return err
}

// abandon gives up the active segment after an I/O error on it, so the
// error costs one append instead of every later one. failed is the
// count of sequence numbers in the write that failed: if any of its bytes
// reached a segment that is kept, one of them may sit there whole, and
// reusing its sequence number would let it shadow the acked record that
// took the number next — so those numbers are skipped, and recovery
// counts what did not land as quarantined. The torn tail is left for
// the scanner.
func (l *Log) abandon(failed int) {
	if fi, err := l.f.Stat(); l.active.bytes > 0 && (err != nil || fi.Size() != l.active.bytes) {
		l.last += uint64(failed)
	}
	l.release()
	l.stats.Abandoned++
}

// Sync fsyncs the active segment: the policy's barrier, or the caller's
// on demand.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		path := l.active.path
		l.abandon(0)
		return fmt.Errorf("seglog: fsync %s: %w", path, err)
	}
	l.stats.Synced++
	l.synced = time.Now()
	return nil
}

// rotate closes the active segment and applies retention. A no-op when
// nothing has been appended since the last rotation.
func (l *Log) rotate() error {
	if l.f == nil {
		return nil
	}
	if err := l.Close(); err != nil {
		return err
	}
	l.stats.Rotated++
	for l.o.RetainBytes >= 0 && len(l.closed) > 0 && l.stats.Bytes > l.o.RetainBytes {
		old := l.closed[0]
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			l.stats.RetainErrors++ // history outliving its budget must not fail capture
			break
		}
		l.closed = l.closed[1:]
		l.stats.Bytes -= old.bytes
		l.stats.Segments--
		l.stats.Retired++
	}
	return nil
}

// Close fsyncs and closes the active segment. The log stays usable: the
// next Append starts a new segment.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil || l.f == nil {
		return err
	}
	if err := l.release(); err != nil {
		return fmt.Errorf("seglog: closing segment: %w", err)
	}
	return nil
}
