// Package tsdb is the embedded time-series store behind gretel-tsdb:
// the receiving end of the telemetry export pipeline. Writes land in
// append-only, time-partitioned segments framed with the WAL record
// codec (kind 'P', CRC-checked, skip-and-count recovery), and an
// in-memory series index serves range queries — so an hours-long soak
// gets queryable per-interval history with zero external dependencies,
// and a crash loses at most the torn tail of the active segment.
//
// The durable unit is one /write body: the raw line-protocol batch is
// the record body, so recovery replays exactly what was posted and the
// same parser handles both paths. Segments rotate on a partition
// boundary (default 1h) or a size bound, whichever comes first, and
// are named tsdb-<first-seq>.seg in WAL style.
package tsdb

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/wal"
)

var (
	mPointsWritten = telemetry.GetCounter("tsdb.points_written")
	mLinesRejected = telemetry.GetCounter("tsdb.lines_rejected")
	mBatches       = telemetry.GetCounter("tsdb.batches")
	mRecovered     = telemetry.GetCounter("tsdb.points_recovered")
	mBytesSkipped  = telemetry.GetCounter("tsdb.bytes_skipped")
	mQueries       = telemetry.GetCounter("tsdb.queries")
	mSegsAbandoned = telemetry.GetCounter("tsdb.segments_abandoned")
	hWrite         = telemetry.GetHistogram("tsdb.write")
	hQuery         = telemetry.GetHistogram("tsdb.query")
)

const (
	segPrefix = "tsdb-"
	segSuffix = ".seg"
)

// Options tunes the store. The zero value (plus Dir) is usable.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// PartitionDur bounds a segment's time span: the active segment
	// rotates when a write crosses into the next partition
	// (default 1h).
	PartitionDur time.Duration
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 64 MiB).
	SegmentBytes int64
}

func (o *Options) defaults() {
	if o.PartitionDur <= 0 {
		o.PartitionDur = time.Hour
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Stats is the store's accounting.
type Stats struct {
	// Points counts points currently queryable (recovered + written).
	Points uint64 `json:"points"`
	// Series counts distinct series.
	Series int `json:"series"`
	// Written counts points accepted this session; Rejected counts
	// lines refused by the parser (counted, never silently dropped).
	Written  uint64 `json:"written"`
	Rejected uint64 `json:"rejected"`
	// Recovered counts points replayed from segments at Open;
	// SkippedBytes counts bytes quarantined by CRC/resync during that
	// replay (the torn tail of a crashed store).
	Recovered    uint64 `json:"recovered"`
	SkippedBytes uint64 `json:"skipped_bytes"`
	// Segments / Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// Point is one sample of one series.
type Point struct {
	TimeNS int64              `json:"t"`
	Fields map[string]float64 `json:"f"`
}

type seriesData struct {
	pts []Point // sorted by TimeNS
}

// Store is the embedded TSDB. All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu     sync.Mutex
	series map[string]*seriesData

	f           *os.File
	bw          *bufio.Writer
	activeBytes int64
	activePart  int64 // partition start (unix ns); 0 = no active segment
	nextSeq     uint64
	segs        int
	diskBytes   int64

	stats Stats
}

// Open opens (or creates) the store at opts.Dir, replaying every intact
// record in its segments to rebuild the in-memory index. Corruption is
// skipped and counted, never fatal — the WAL recovery discipline.
func Open(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("tsdb: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: creating %s: %w", opts.Dir, err)
	}
	s := &Store{opts: opts, series: make(map[string]*seriesData)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// segName renders the segment file name for a first record sequence.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

// listSegments returns the store's segments sorted by first sequence.
func (s *Store) listSegments() ([]string, error) {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasPrefix(n, segPrefix) || !strings.HasSuffix(n, segSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(n[len(segPrefix):len(n)-len(segSuffix)], 10, 64); err != nil {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names) // fixed-width zero-padded seq: lexical == numeric
	return names, nil
}

// recover replays all segments through the shared record codec and the
// line parser, rebuilding the series index.
func (s *Store) recover() error {
	names, err := s.listSegments()
	if err != nil {
		return fmt.Errorf("tsdb: listing %s: %w", s.opts.Dir, err)
	}
	var buf []byte
	sizes := make([]int64, len(names))
	counted := make([]bool, len(names))
	lastIntact := -1 // index of the newest segment holding an intact record
	for i, name := range names {
		path := filepath.Join(s.opts.Dir, name)
		f, err := os.Open(path)
		if err != nil {
			continue // unreadable segment: its bytes are simply absent
		}
		if fi, err := f.Stat(); err == nil {
			sizes[i] = fi.Size()
			s.diskBytes += fi.Size()
		}
		s.segs++
		counted[i] = true
		br := bufio.NewReaderSize(f, 256<<10)
		for {
			_, seq, body, skipped, rerr := wal.ReadRecord(br, string(wal.KindPoints), buf)
			if skipped > 0 {
				s.stats.SkippedBytes += uint64(skipped)
				mBytesSkipped.Add(uint64(skipped))
			}
			if rerr != nil {
				break
			}
			lastIntact = i
			if cap(body) > cap(buf) {
				buf = body[:0]
			}
			if seq > s.nextSeq {
				s.nextSeq = seq
			}
			n, _ := s.ingestLocked(string(body))
			s.stats.Recovered += uint64(n)
			mRecovered.Add(uint64(n))
		}
		f.Close()
	}
	// Trailing segments holding no intact record — a crash created them
	// and died before the first flush, or tore the first record — must
	// go: they carry the name rotateIfDue's next O_EXCL create would use
	// (segName(nextSeq+1), since nothing in them advanced nextSeq), so
	// leaving them would fail every future Write with EEXIST. Same
	// discipline as wal.Open; their torn bytes are already counted in
	// SkippedBytes.
	for i := lastIntact + 1; i < len(names); i++ {
		path := filepath.Join(s.opts.Dir, names[i])
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("tsdb: removing recordless segment %s: %w", path, err)
		}
		if counted[i] {
			s.segs--
			s.diskBytes -= sizes[i]
		}
		telemetry.LogFirst("tsdb.recordless", "tsdb: dropped recordless torn segment %s (%d bytes)", path, sizes[i])
	}
	s.stats.Segments = s.segs
	s.stats.Bytes = s.diskBytes
	return nil
}

// ingestLocked parses a line-protocol batch into the index, returning
// accepted and rejected line counts. Callers hold mu (or are in Open).
func (s *Store) ingestLocked(body string) (accepted, rejected int) {
	for len(body) > 0 {
		nl := strings.IndexByte(body, '\n')
		var line string
		if nl < 0 {
			line, body = body, ""
		} else {
			line, body = body[:nl], body[nl+1:]
		}
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		p, err := ParseLine(line)
		if err != nil {
			rejected++
			telemetry.LogFirst("tsdb.parse", "tsdb: rejecting line: %v", err)
			continue
		}
		sd := s.series[p.Series]
		if sd == nil {
			sd = &seriesData{}
			s.series[p.Series] = sd
		}
		sd.insert(Point{TimeNS: p.TimeNS, Fields: p.Fields})
		accepted++
	}
	s.stats.Points += uint64(accepted)
	return accepted, rejected
}

// insert keeps pts sorted by time. The exporter's stream is already
// monotonic per series, so the common case is a tail append; a
// backdated point (bulk-loaded history) binary-searches its slot.
func (sd *seriesData) insert(p Point) {
	n := len(sd.pts)
	if n == 0 || sd.pts[n-1].TimeNS <= p.TimeNS {
		sd.pts = append(sd.pts, p)
		return
	}
	i := sort.Search(n, func(i int) bool { return sd.pts[i].TimeNS > p.TimeNS })
	sd.pts = append(sd.pts, Point{})
	copy(sd.pts[i+1:], sd.pts[i:])
	sd.pts[i] = p
}

// Write ingests one line-protocol batch: durably appended as a single
// record first, then indexed. now drives partition rotation. It
// returns accepted/rejected line counts; a batch whose every line is
// rejected is still durable (recovery recounts the rejects) but
// reports an error to the poster.
func (s *Store) Write(body []byte, now time.Time) (accepted, rejected int, err error) {
	if len(body) == 0 {
		return 0, 0, nil
	}
	if len(body) > wal.MaxRecord {
		return 0, 0, fmt.Errorf("tsdb: batch is %d bytes, over the %d-byte record bound", len(body), wal.MaxRecord)
	}
	sp := hWrite.Start()
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rotateIfDue(now, int64(len(body))+24); err != nil {
		return 0, 0, err
	}
	rec := wal.EncodeRecord(nil, wal.KindPoints, s.nextSeq+1, body)
	if _, err := s.bw.Write(rec); err != nil {
		s.abandonActive()
		return 0, 0, fmt.Errorf("tsdb: appending: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		s.abandonActive()
		return 0, 0, fmt.Errorf("tsdb: flushing: %w", err)
	}
	s.nextSeq++
	s.activeBytes += int64(len(rec))
	s.diskBytes += int64(len(rec))
	s.stats.Bytes = s.diskBytes

	accepted, rejected = s.ingestLocked(string(body))
	s.stats.Written += uint64(accepted)
	s.stats.Rejected += uint64(rejected)
	mPointsWritten.Add(uint64(accepted))
	mLinesRejected.Add(uint64(rejected))
	mBatches.Inc()
	return accepted, rejected, nil
}

// rotateIfDue opens the first segment lazily and rotates when the write
// would land in a new time partition or push the segment over the size
// bound.
func (s *Store) rotateIfDue(now time.Time, need int64) error {
	part := now.Truncate(s.opts.PartitionDur).UnixNano()
	if s.f != nil {
		newPart := part != s.activePart
		over := s.activeBytes > 0 && s.activeBytes+need > s.opts.SegmentBytes
		if !newPart && !over {
			return nil
		}
		if err := s.closeActive(); err != nil {
			return err
		}
	}
	path := filepath.Join(s.opts.Dir, segName(s.nextSeq+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: creating segment %s: %w", path, err)
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, 64<<10)
	s.activeBytes = 0
	s.activePart = part
	s.segs++
	s.stats.Segments = s.segs
	return nil
}

// closeActive flushes, fsyncs, and closes the active segment — a
// rotated-away segment is finished history. The handles are released
// even on failure: bufio latches its first I/O error (ENOSPC, EIO), so
// once a Flush fails it fails forever, and keeping s.f/s.bw would pin
// every later Write to the same sticky error until process restart.
// Dropping them instead lets the next Write rotate to a fresh segment
// once the condition clears; the unflushed tail is abandoned (counted
// below) and whatever partial bytes did land read back as a torn tail.
func (s *Store) closeActive() error {
	if s.f == nil {
		return nil
	}
	flushErr := s.bw.Flush()
	var syncErr error
	if flushErr == nil {
		syncErr = s.f.Sync()
	}
	closeErr := s.f.Close()
	s.f, s.bw = nil, nil
	switch {
	case flushErr != nil:
		mSegsAbandoned.Inc()
		return fmt.Errorf("tsdb: flushing segment: %w", flushErr)
	case syncErr != nil:
		mSegsAbandoned.Inc()
		return fmt.Errorf("tsdb: syncing segment: %w", syncErr)
	case closeErr != nil:
		return fmt.Errorf("tsdb: closing segment: %w", closeErr)
	}
	return nil
}

// abandonActive drops a segment whose writer just hit an I/O error:
// the bufio error is latched, so the handles must go for the store to
// recover (see closeActive). A segment that never flushed an intact
// record is also removed from disk — its name is segName(nextSeq+1),
// exactly what the next rotation's O_EXCL create would use.
func (s *Store) abandonActive() {
	if s.f == nil {
		return
	}
	path := s.f.Name()
	s.f.Close()
	s.f, s.bw = nil, nil
	if s.activeBytes == 0 {
		os.Remove(path)
		s.segs--
		s.stats.Segments = s.segs
	}
	mSegsAbandoned.Inc()
	telemetry.LogFirst("tsdb.abandon", "tsdb: abandoned active segment %s after write error", path)
}

// Query returns series points with from <= t <= to (ns). A zero `to`
// means no upper bound. Unknown series yield an empty slice, not an
// error — a soak dashboard polling a series that has not reported yet
// should see [] rather than a failure.
func (s *Store) Query(series string, from, to int64) []Point {
	sp := hQuery.Start()
	defer sp.End()
	mQueries.Inc()
	if to == 0 {
		to = int64(^uint64(0) >> 1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.series[series]
	if sd == nil {
		return []Point{}
	}
	lo := sort.Search(len(sd.pts), func(i int) bool { return sd.pts[i].TimeNS >= from })
	hi := sort.Search(len(sd.pts), func(i int) bool { return sd.pts[i].TimeNS > to })
	out := make([]Point, hi-lo)
	copy(out, sd.pts[lo:hi])
	return out
}

// SeriesInfo summarizes one series for /series.
type SeriesInfo struct {
	Series  string `json:"series"`
	Points  int    `json:"points"`
	FirstNS int64  `json:"first_ns"`
	LastNS  int64  `json:"last_ns"`
}

// Series lists every known series sorted by key.
func (s *Store) Series() []SeriesInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesInfo, 0, len(s.series))
	for key, sd := range s.series {
		info := SeriesInfo{Series: key, Points: len(sd.pts)}
		if len(sd.pts) > 0 {
			info.FirstNS = sd.pts[0].TimeNS
			info.LastNS = sd.pts[len(sd.pts)-1].TimeNS
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series < out[j].Series })
	return out
}

// Stats snapshots the accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Series = len(s.series)
	return st
}

// Sync flushes and fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: flushing: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("tsdb: syncing: %w", err)
	}
	return nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeActive()
}
