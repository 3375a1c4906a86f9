// Package tsdb is the embedded time-series store behind gretel-tsdb:
// the receiving end of the telemetry export pipeline. Writes land in
// an internal/seglog segment log (the WAL's envelope, lifecycle and
// skip-and-count recovery; record kind 'P', files tsdb-<first-seq>.seg)
// and an in-memory series index serves range queries — so an hours-long
// soak gets queryable per-interval history with zero external
// dependencies, and a crash loses at most the torn tail of the active
// segment.
//
// The durable unit is one /write body: the raw line-protocol batch is
// the record body, so recovery replays exactly what was posted and the
// same parser handles both paths. Segments rotate on a partition
// boundary (default 1h) or a size bound, whichever comes first; every
// segment is retained, and fsync happens when one closes and on Sync.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
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
	// kindPoints is the store's record kind: one line-protocol batch.
	kindPoints = "P"
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

	log        *seglog.Log
	activePart int64 // partition (start, unix ns) of the last write
	scratch    []byte
	abandoned  uint64 // what tsdb.segments_abandoned has been told

	stats Stats
}

// segOptions is the store's segment log: every segment retained, fsync
// only when a segment closes or Sync asks.
func segOptions(o Options) seglog.Options {
	return seglog.Options{
		Dir: o.Dir, Prefix: segPrefix, Kinds: kindPoints,
		SegmentBytes: o.SegmentBytes, SyncInterval: -1, RetainBytes: -1,
	}
}

// Open opens (or creates) the store at opts.Dir, replaying every intact
// record in its segments to rebuild the in-memory index. Corruption is
// skipped and counted, never fatal — the WAL recovery discipline.
func Open(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("tsdb: Options.Dir is required")
	}
	s := &Store{opts: opts, series: make(map[string]*seriesData)}
	// Replay before opening for append: Open removes recordless torn
	// segments, and their bytes belong in SkippedBytes.
	sc, err := seglog.OpenScanner(opts.Dir, segPrefix, kindPoints)
	if err != nil {
		return nil, fmt.Errorf("tsdb: listing %s: %w", opts.Dir, err)
	}
	for {
		_, _, body, err := sc.Next()
		if err != nil { // io.EOF: damage is skipped and counted, never returned
			break
		}
		n, _ := s.ingestLocked(string(body))
		s.stats.Recovered += uint64(n)
	}
	s.stats.SkippedBytes = sc.Stats().BytesSkipped
	mRecovered.Add(s.stats.Recovered)
	mBytesSkipped.Add(s.stats.SkippedBytes)
	if s.log, err = seglog.Open(segOptions(opts)); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	if n := s.log.Stats().Dropped; n > 0 {
		telemetry.LogFirst("tsdb.recordless", "tsdb: dropped %d recordless torn segment(s) from %s", n, opts.Dir)
	}
	return s, nil
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
	if len(body) > seglog.MaxRecord {
		return 0, 0, fmt.Errorf("tsdb: batch is %d bytes, over the %d-byte record bound", len(body), seglog.MaxRecord)
	}
	sp := hWrite.Start()
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.noted(s.appendLocked(body, now)); err != nil {
		return 0, 0, err
	}
	accepted, rejected = s.ingestLocked(string(body))
	s.stats.Written += uint64(accepted)
	s.stats.Rejected += uint64(rejected)
	mPointsWritten.Add(uint64(accepted))
	mLinesRejected.Add(uint64(rejected))
	mBatches.Inc()
	return accepted, rejected, nil
}

// noted passes on the outcome of a segment-log call, once
// tsdb.segments_abandoned knows of any segment the call gave up.
func (s *Store) noted(err error) error {
	n := s.log.Stats().Abandoned
	mSegsAbandoned.Add(n - s.abandoned)
	s.abandoned = n
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	return nil
}

// appendLocked makes body durable as one record, rotating first when the
// write lands in a new time partition (the size rule is seglog's own).
func (s *Store) appendLocked(body []byte, now time.Time) error {
	part := now.Truncate(s.opts.PartitionDur).UnixNano()
	if part != s.activePart {
		if err := s.log.Rotate(); err != nil {
			return err
		}
		s.activePart = part
	}
	s.scratch = seglog.AppendRecord(s.scratch[:0], kindPoints[0], s.log.LastSeq()+1, body)
	_, err := s.log.Append(s.scratch, 1)
	return err
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
	ls := s.log.Stats()
	st.Segments, st.Bytes = ls.Segments, ls.Bytes
	return st
}

// Sync fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.noted(s.log.Sync())
}

// Close fsyncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.noted(s.log.Close())
}
