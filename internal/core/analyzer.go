// Package core implements the GRETEL analyzer service (§5): the event
// receiver, the anomaly detector for operational and performance faults,
// and Algorithm 2's operation-detection mechanism — dual-buffer sliding
// window, freeze-on-fault snapshots, truncated-fingerprint matching over
// a growing context buffer, and the precision metric θ. Detection runs on
// the fingerprint library's compiled programs and keeps its working memory
// in scratch owned by whoever runs it (the Analyzer inline, each worker in
// the pool), so a fault costs the walk and the Report, nothing else.
//
// The analyzer consumes trace.Events from monitoring agents in arrival
// order (TCP from each agent preserves per-stream order, §5.2), pairs
// requests with responses to compute per-API latencies, detects REST
// error statuses and RPC failures with lightweight checks, and — only when
// a fault is present — spawns operation detection against the fingerprint
// library, followed by optional root-cause analysis.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"gretel/internal/fingerprint"
	"gretel/internal/stats"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
	"gretel/internal/window"
)

// Analyzer telemetry: the per-Analyzer Stats struct keeps serving the
// experiments; these process-wide metrics feed the live /metrics
// endpoint. The histograms time the two heavy stages — Algorithm 2's
// window matching and the RCA hook — in wall-clock time, which is what
// "lightweight" must be judged by.
var (
	mEventsIngested = telemetry.GetCounter("core.events_ingested")
	mRESTPairs      = telemetry.GetCounter("core.rest_pairs")
	mRPCPairs       = telemetry.GetCounter("core.rpc_pairs")
	mFaultsOper     = telemetry.GetCounter("core.faults.operational")
	mFaultsPerf     = telemetry.GetCounter("core.faults.performance")
	mDetectAttempts = telemetry.GetCounter("core.opdetect.attempts")
	mDetectHits     = telemetry.GetCounter("core.opdetect.hits")
	mDetectMisses   = telemetry.GetCounter("core.opdetect.misses")
	mPatternSyms    = telemetry.GetCounter("core.opdetect.pattern_symbols")
	mUnknownSyms    = telemetry.GetCounter("core.opdetect.unknown_symbols")
	hWindowMatch    = telemetry.GetHistogram("core.window_match")
	hRCA            = telemetry.GetHistogram("core.rca")
)

// FaultKind distinguishes the two fault classes GRETEL localizes.
type FaultKind uint8

const (
	// Operational faults are API error responses (§3).
	Operational FaultKind = iota + 1
	// Performance faults are anomalous API latencies.
	Performance
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case Operational:
		return "operational"
	case Performance:
		return "performance"
	default:
		return "unknown"
	}
}

// RootCause is one finding of the root-cause analysis engine, attached to
// a report by the configured RCA hook.
type RootCause struct {
	Node   string
	Kind   string // "resource" or "software"
	Detail string
}

// String implements fmt.Stringer.
func (r RootCause) String() string {
	return fmt.Sprintf("%s: %s (%s)", r.Node, r.Detail, r.Kind)
}

// Report is the analyzer's output for one detected fault.
type Report struct {
	Kind FaultKind
	// Fault is the offending message: the error event for operational
	// faults, the slow response for performance faults.
	Fault trace.Event
	// OffendingAPI is the API used for candidate selection — for
	// operational faults the nearest qualifying earlier error in the
	// snapshot (upstreamAPI: an upstream RPC error takes precedence over
	// the REST error that relayed it), else the fault's own API.
	OffendingAPI trace.API
	// Errors lists every error event found in the snapshot (REST and
	// RPC together, §5.3.1), for root-cause analysis.
	Errors []trace.Event
	// Candidates is the final matched operation set (the paper's n).
	Candidates []string
	// CandidatesByErrorOnly counts operations matched on just the error
	// API, without the snapshot (Fig 7b/7c "With API error").
	CandidatesByErrorOnly int
	// Precision is θ = (N-n)/(N-1).
	Precision float64
	// Beta is the final context-buffer size used.
	Beta int
	// Latency carries the anomalous latency for performance faults.
	Latency time.Duration
	// DetectedAt is the receiver time when the report was produced;
	// ReportDelay is DetectedAt minus the fault message's capture time.
	DetectedAt  time.Time
	ReportDelay time.Duration
	// RootCauses is filled by the RCA hook, if configured.
	RootCauses []RootCause
	// DegradedNodes lists nodes whose monitoring feed had unhealed loss
	// (frame gaps or a down agent) when this report was produced: the
	// snapshot may be missing that node's messages, so the candidate set
	// is lower-confidence. Empty on a healthy monitoring plane.
	DegradedNodes []string
	// TraceID links the report to its evidence trace in the installed
	// trace store (explain mode): the ID the store assigned when finish
	// stored the trace, 1, 2, … in fault-arrival order. Zero — and
	// omitted from JSON — when explain mode is off, keeping reports
	// byte-identical to a run without the subsystem.
	TraceID uint64 `json:",omitempty"`

	// TruthOp is ground truth (evaluation only): the operation that
	// actually contained the fault.
	TruthOp string

	// evidence is the in-flight evidence trace, carried from the detect
	// worker to finish, which stores it. Nil outside explain mode.
	evidence *tracestore.Trace
}

// Hit reports whether ground truth is among the candidates (evaluation).
func (r *Report) Hit() bool {
	for _, c := range r.Candidates {
		if c == r.TruthOp {
			return true
		}
	}
	return false
}

// Config tunes the analyzer. Zero values take the paper's §7 settings.
type Config struct {
	// Alpha is the sliding-window size (paper: 768). If zero it is
	// derived as window.Alpha(FPmax, Prate, T); below window.MinAlpha it
	// is raised to it.
	Alpha int
	// Prate and T feed the α computation when Alpha is zero.
	Prate float64
	T     float64
	// DisablePruneRPC keeps RPC symbols in fingerprints and snapshots.
	// By default they are dropped before matching (the §6 optimization);
	// keeping them is the Fig 7c ablation.
	DisablePruneRPC bool
	// SnapshotOnRPCErrors also arms snapshots for RPC failures instead of
	// waiting for the relayed REST error (ablation; default off, §5.3.1
	// "Improving precision").
	SnapshotOnRPCErrors bool
	// GrowToCover disables the §5.3.1 stop rule (stop growing the
	// context buffer as soon as the matched set grows) and always grows
	// to the whole window. Default off: the paper's rule keeps the
	// matched set tight; growing to cover lets densely shared API symbols
	// from concurrent operations satisfy almost every candidate's
	// in-order test, inflating n (the ablation bench quantifies this).
	GrowToCover bool
	// UseCorrelationIDs restricts snapshot matching to events sharing the
	// fault's correlation identifier when one is present — the §5.3.1
	// extension ("GRETEL can exploit these correlation identifiers to
	// increase its precision by reducing the number of packets against
	// which a fingerprint is matched"). Requires a deployment that stamps
	// X-Openstack-Request-Id.
	UseCorrelationIDs bool
	// Latency configures the per-API level-shift detectors.
	Latency tsoutliers.Options
	// PerfDetection enables operation detection for latency alarms.
	PerfDetection bool
	// DetectWorkers sets the number of concurrent detection workers that
	// run Algorithm 2 off the ingest hot path. 0 (the default, and what
	// every bench/ workload runs) detects inline on the receiver
	// goroutine; the pool is the measured option (bench/'s
	// core.detect.pooled_ratio: 1.9× inline on two cores). Negative uses
	// GOMAXPROCS. The worker pool preserves report order: a sequenced
	// collector delivers reports in fault-arrival order, so inline and
	// parallel modes produce identical output.
	DetectWorkers int
	// DetectBacklog bounds the snapshot queue feeding the worker pool
	// (default 4×workers). When the queue is full the receiver blocks
	// (backpressure) unless DetectShed is set.
	DetectBacklog int
	// DetectShed drops snapshots instead of blocking the receiver when
	// the detection queue is full. Shed snapshots are counted in
	// Stats.SnapshotsShed and the core.snapshots_shed telemetry counter.
	DetectShed bool
	// Deprecated: nothing reads this field — ingest is one path. It
	// remains only because bench/e2e/layers.go, frozen between
	// [benchmark] PRs, still sets it; the ROADMAP's "Refresh the
	// benchmark contract" item deletes it together with the
	// core.ingest.sharded_ratio layer.
	IngestShards int
}

func (c *Config) defaults(lib *fingerprint.Library) {
	if c.Alpha == 0 {
		fpMax := lib.MaxLen()
		if fpMax == 0 {
			fpMax = 384
		}
		prate := c.Prate
		if prate == 0 {
			prate = 150
		}
		t := c.T
		if t == 0 {
			t = 1
		}
		c.Alpha = window.Alpha(fpMax, prate, t)
	}
	// The window runs at least MinAlpha; record the α it runs, which
	// growth, performance reports and evidence read.
	c.Alpha = max(c.Alpha, window.MinAlpha)
	if c.Latency.MinSpread == 0 {
		// API latencies are tens of milliseconds; floor the spread at 5ms
		// so micro-jitter never alarms.
		c.Latency.MinSpread = 5e-3
	}
	if c.Latency.MaxAlarms == 0 {
		// Bound each per-API detector's alarm history so hours-long
		// chaos soaks cannot grow analyzer memory without limit; alarm
		// *counts* stay exact. Negative keeps the unbounded history.
		c.Latency.MaxAlarms = 4096
	}
	if c.DetectWorkers < 0 {
		c.DetectWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DetectBacklog <= 0 {
		c.DetectBacklog = 4 * c.DetectWorkers
	}
}

// Stats counts analyzer work for the throughput experiments. Receiver
// fields (Events…Snapshots, SnapshotsShed, PairsEvicted) are written by
// the ingest goroutine, report fields (Reports, FalseNegs, MatchedTotal)
// by the report collector; read them after Flush or Close.
type Stats struct {
	Events        uint64
	Bytes         uint64
	RESTPairs     uint64
	RPCPairs      uint64
	Faults        uint64
	PerfAlarms    uint64
	Snapshots     uint64
	SnapshotsShed uint64 // snapshots dropped under DetectShed backpressure
	PairsEvicted  uint64 // pairing-state entries evicted by TTL or cap
	NodeGaps      uint64 // monitoring-plane gap/down records applied (NodeGap)
	FramesMissed  uint64 // frames the transport reported lost across all gaps
	PairsFlushed  uint64 // pairing-state entries flushed by NodeGap
	CaptureErrors uint64 // durable-capture appends that failed (events processed uncaptured)
	Reports       uint64
	FalseNegs     uint64 // faults whose API had no fingerprint candidates
	MatchedTotal  uint64 // sum of candidate-set sizes across reports
}

type pendingReq struct {
	at   time.Time
	seq  uint64 // event sequence, for deterministic eviction tie-breaks
	node string // responder node, for NodeGap flushes
}

// Analyzer is the central GRETEL service.
type Analyzer struct {
	cfg Config
	lib *fingerprint.Library

	win     *window.Dual
	pending map[uint64]pendingReq // REST pairing by connection
	calls   map[string]pendingReq // RPC pairing by message id
	// apis resolves each event's API once: its window word's symbol and
	// its latency state (apis.go, latency.go).
	apis apiTable
	// lat folds paired latencies into that state beside ingest
	// (latency.go).
	lat *latStage
	// degraded marks nodes with unhealed monitoring-feed loss (NodeGap)
	// until the agent provably returns (NodeRecovered); value is the time
	// of the last recorded loss.
	degraded map[string]time.Time

	// scratch is inline detection's working memory; each detect worker
	// owns its own (pipeline.go).
	scratch detectScratch

	onReport func(*Report)
	// rca is the root-cause hook SetRCA or SetRCAExplain installed.
	rca func(*Report) ([]RootCause, *tracestore.RCAEvidence)

	// explain is the evidence-trace store (nil unless explain mode is
	// on); finish stores each report's trace, in fault-arrival order.
	explain *tracestore.Store

	reports []*Report
	Stats   Stats

	// Detection pipeline state (pipeline.go); jobs is nil in inline mode.
	jobs          chan detectJob
	results       chan detectResult
	nextSeq       uint64
	inFlight      sync.WaitGroup
	workersWG     sync.WaitGroup
	collectorDone chan struct{}

	// Durable event plane (capture.go); capture is nil unless SetCapture
	// attached a WAL, and capOne is the one-event batch Ingest hands it —
	// a field, so the event does not escape to the heap on every call.
	capture Capture
	capOne  [1]trace.Event
}

// New builds an analyzer over a learned fingerprint library and freezes
// the library: adding to it afterwards panics. When cfg.DetectWorkers
// is non-zero the detection worker pool starts immediately; call Close
// to stop it (Flush alone drains it).
func New(lib *fingerprint.Library, cfg Config) *Analyzer {
	cfg.defaults(lib)
	lib.Freeze()
	a := &Analyzer{
		cfg:      cfg,
		lib:      lib,
		win:      window.New(cfg.Alpha),
		pending:  make(map[uint64]pendingReq),
		calls:    make(map[string]pendingReq),
		apis:     newAPITable(lib.Table),
		degraded: make(map[string]time.Time),
	}
	a.lat = newLatStage(cfg.PerfDetection, a.win.Alpha())
	if cfg.DetectWorkers > 0 {
		a.startPipeline(cfg.DetectWorkers)
	}
	return a
}

// Config returns the effective configuration (with defaults resolved).
func (a *Analyzer) Config() Config { return a.cfg }

// OnReport registers a callback invoked for every report as it is
// produced.
func (a *Analyzer) OnReport(fn func(*Report)) { a.onReport = fn }

// SetRCA installs the root-cause analysis hook (Algorithm 3, implemented
// in the rca package); fn must be non-nil. It shares one slot with
// SetRCAExplain: the last call wins.
func (a *Analyzer) SetRCA(fn func(*Report) []RootCause) {
	a.rca = func(r *Report) ([]RootCause, *tracestore.RCAEvidence) { return fn(r), nil }
}

// Reports returns all reports produced so far, in fault-arrival order.
// With a detection worker pool configured, call Flush or Close first to
// drain in-flight detections.
func (a *Analyzer) Reports() []*Report { return a.reports }

// Ingest processes one event from the monitoring agents. It must be
// called from a single goroutine (the event receiver). A driver that
// already holds a slice of events should hand it to IngestBatch, which
// captures it in one append.
func (a *Analyzer) Ingest(ev trace.Event) {
	var last uint64
	if a.capture != nil {
		a.capOne[0] = ev
		last = a.captureEvents(a.capOne[:], nil)
	}
	a.ingestOne(&ev)
	a.markProcessed(last)
}

// IngestBatch is Ingest over a slice, in order, under the same
// single-goroutine contract: with a capture attached the batch is one
// AppendBatch and one MarkProcessed. The slice is read in place and
// neither retained nor written.
func (a *Analyzer) IngestBatch(evs []trace.Event) { a.IngestRecord(evs, nil) }

// IngestRecord is IngestBatch for a batch that also carries its events'
// bodies as one batch record (agent.Batch.Record; empty for none). A
// RecordCapture writes rec as it is, so the events are not encoded a
// second time; any other capture is handed AppendBatch(evs). rec is the
// capture's to seal in place.
func (a *Analyzer) IngestRecord(evs []trace.Event, rec []byte) {
	if len(evs) == 0 {
		return
	}
	var last uint64
	if a.capture != nil {
		last = a.captureEvents(evs, rec)
	}
	for i := range evs {
		a.ingestOne(&evs[i])
	}
	a.markProcessed(last)
}

// ingestOne is the per-event body under Ingest and IngestBatch. It
// reads the caller's event in place and never writes to it: the window
// keeps its own copy.
func (a *Analyzer) ingestOne(ev *trace.Event) {
	// Performance fault detection: the paired latency goes to the
	// latency stage, which folds it into its API's level-shift detector
	// and summary a batch at a time and arms a performance snapshot at
	// this push when the detector alarms (latency.go).
	if rec, latency, ok := a.receive(ev); ok {
		a.observeLatency(rec, ev.Time, latency)
	}
	if now := a.win.Pushed(); now >= a.lat.due {
		a.settleLatency(now - a.lat.collectBy)
	}
}

// receive is ingest's work on ev before latency tracking: it numbers,
// pairs and pushes ev, and arms an operational snapshot when ev is an
// error. When ev is a paired, non-faulty response it returns its API's
// record and its latency, for the level-shift detector.
func (a *Analyzer) receive(ev *trace.Event) (rec *apiRec, latency time.Duration, sample bool) {
	a.Stats.Events++
	mEventsIngested.Inc()
	a.Stats.Bytes += uint64(ev.WireBytes)
	seq := ev.Seq // an unsequenced event is numbered in arrival order
	if seq == 0 {
		seq = a.Stats.Events
	}

	// Request/response pairing and latency measurement (§5.3: REST by
	// TCP connection metadata, RPC by message identifier).
	var havePair bool
	switch ev.Type {
	case trace.RESTRequest:
		a.Stats.PairsEvicted += capPairs(a.pending)
		a.pending[ev.ConnID] = pendingReq{ev.Time, seq, ev.DstNode}
	case trace.RESTResponse:
		if req, ok := a.pending[ev.ConnID]; ok {
			delete(a.pending, ev.ConnID)
			latency = ev.Time.Sub(req.at)
			havePair = true
			a.Stats.RESTPairs++
			mRESTPairs.Inc()
		}
	case trace.RPCCall:
		if ev.MsgID != "" {
			a.Stats.PairsEvicted += capPairs(a.calls)
			a.calls[ev.MsgID] = pendingReq{ev.Time, seq, ev.DstNode}
		}
	case trace.RPCReply:
		if req, ok := a.calls[ev.MsgID]; ok {
			delete(a.calls, ev.MsgID)
			latency = ev.Time.Sub(req.at)
			havePair = true
			a.Stats.RPCPairs++
			mRPCPairs.Inc()
		}
	}
	// Amortized age sweep: requests whose responses were lost on the
	// wire must not grow the pairing maps forever.
	if a.Stats.Events&(pairSweepEvery-1) == 0 {
		a.evictAgedPairs(ev.Time)
	}

	word, rec := a.apis.word(ev)
	a.win.PushSeq(ev, seq, word)

	// Operational fault detection: error statuses found by the agents'
	// regex scans. Snapshots are armed only for REST errors (RPC errors
	// ride along inside the snapshot) unless configured otherwise.
	faulty := word&wFaulty != 0
	if faulty {
		a.Stats.Faults++
		mFaultsOper.Inc()
		if ev.Type == trace.RESTResponse || a.cfg.SnapshotOnRPCErrors {
			a.armSnapshot(Operational, 0, 0)
		}
	}
	return rec, latency, havePair && !faulty
}

// LatencyDetector exposes the per-API latency detector (for experiment
// plots of the adjusted series and level shifts), with every latency
// ingested so far folded in. Call it from the ingest goroutine; the
// detector is safe to read until the next ingest call.
func (a *Analyzer) LatencyDetector(api trace.API) *tsoutliers.Detector {
	a.settleLatency(math.MaxUint64)
	if al := a.apis.latency(api); al != nil {
		return al.det
	}
	return nil
}

// APILatency pairs an API with its latency summary.
type APILatency struct {
	API     trace.API
	Summary *stats.Summary
}

// LatencySummaries returns per-API latency summaries sorted by p95
// descending — the operator's view of the deployment's slowest APIs —
// with every latency ingested so far folded in. Call it from the ingest
// goroutine; the summaries are safe to read until the next ingest call.
func (a *Analyzer) LatencySummaries() []APILatency {
	a.settleLatency(math.MaxUint64)
	var out []APILatency
	for i := range a.apis.recs {
		if rec := &a.apis.recs[i]; rec.lat != nil {
			out = append(out, APILatency{rec.api, &rec.lat.sum})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		qi, qj := out[i].Summary.Quantile(0.95), out[j].Summary.Quantile(0.95)
		if qi != qj {
			return qi > qj
		}
		return out[i].API.String() < out[j].API.String()
	})
	return out
}

// Flush folds every latency ingested so far, forces any armed snapshots
// to fire with the data already in the window, then drains the
// detection pipeline — called at end of stream. Once Flush returns,
// Reports and Stats reflect every fault ingested so far.
func (a *Analyzer) Flush() {
	a.settleLatency(math.MaxUint64)
	a.win.Flush()
	if a.jobs != nil {
		a.inFlight.Wait()
	}
}

// NodeGap tells the analyzer the monitoring feed from node lost data —
// a frame-sequence gap (missing counts the lost frames) or the agent
// going dark entirely (missing 0). The analyzer flushes pairing state
// waiting on responses from that node (the responses may never come,
// and a latency computed across the gap would be fiction) and marks the
// node degraded: reports produced until NodeRecovered carry it in
// DegradedNodes. Call from the ingest goroutine, like Ingest.
func (a *Analyzer) NodeGap(node string, missing uint64, at time.Time) {
	a.Stats.NodeGaps++
	a.Stats.FramesMissed += missing
	mNodeGaps.Inc()
	a.degraded[node] = at
	var flushed uint64
	for k, p := range a.pending {
		if p.node == node {
			delete(a.pending, k)
			flushed++
		}
	}
	for k, p := range a.calls {
		if p.node == node {
			delete(a.calls, k)
			flushed++
		}
	}
	if flushed > 0 {
		a.Stats.PairsFlushed += flushed
		mPairsFlushed.Add(flushed)
		telemetry.LogFirst("core.nodegap",
			"core: monitoring gap on %s (%d frames missing): flushed %d pending pairs", node, missing, flushed)
	}
}

// NodeRecovered clears a node's degraded mark after its agent provably
// returned (the transport saw fresh frames from it).
func (a *Analyzer) NodeRecovered(node string) {
	delete(a.degraded, node)
}

// degradedList snapshots the degraded node set, sorted for determinism;
// nil when the monitoring plane is healthy, so healthy-plane reports
// are byte-identical to runs without degradation tracking.
func (a *Analyzer) degradedList() []string {
	if len(a.degraded) == 0 {
		return nil
	}
	nodes := make([]string, 0, len(a.degraded))
	for n := range a.degraded {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// armSnapshot arms a snapshot for the message pushed back pushes ago.
// The snapshot holds that message at its fault index, numbered as ingest
// numbered it, which is the fault the report carries.
func (a *Analyzer) armSnapshot(kind FaultKind, latency time.Duration, back int) {
	a.Stats.Snapshots++
	a.win.ArmBack(back, func(snap *window.Snapshot) {
		a.dispatch(*snap.At(snap.FaultIndex), kind, latency, snap)
	})
}

// detectScratch is the working memory of one detect caller — the
// Analyzer itself for inline detection, each detect worker otherwise — so
// steady-state detection allocates only what the Report keeps. It holds
// the snapshot's symbol pattern, computed once per snapshot: syms are the
// matchable symbols, evIdx maps each symbol back to its event index in
// the snapshot (the fault-centered position map), and idx is the
// next-occurrence table over the whole snapshot, with the candidates'
// programs bound to it, that every β view walks — so growing the context
// buffer rebuilds neither pattern, table nor programs.
type detectScratch struct {
	// words holds the snapshot's window words, one slice per window
	// chunk; filled holds the words Detect fills for a snapshot frozen
	// without them.
	words  [][]uint32
	filled []uint32
	syms   []rune
	evIdx  []int32
	idx    fingerprint.Index
	// truncate is how idx's programs were cut: every match of the
	// report cuts its candidates the same way.
	truncate bool
	// cur and prev are growContext's matched-name buffers (this β step's
	// and the last one's); step holds the candidates a step matched.
	cur, prev []string
	step      []int32
}

// snapshotPattern builds the pattern from the snapshot's window words:
// one symbol per *request-side* message (responses repeat the API and
// would only duplicate symbols), skipping RPC symbols when pruning. When
// corrID is non-empty (correlation-id mode), only events stamped with it
// contribute — the precision extension of §5.3.1 — and only then are the
// events themselves read.
func (a *Analyzer) snapshotPattern(sc *detectScratch, snap *window.Snapshot, words [][]uint32, corrID string) {
	// A word contributes its symbol when its masked bits are exactly
	// wRequest|wKnown, and counts as unknown (an API never fingerprinted:
	// it cannot help matching) when they are wRequest alone. Every word
	// is written and the length advanced by the verdict, so the loop has
	// no branch on the words.
	mask := wRequest | wKnown
	if !a.cfg.DisablePruneRPC {
		mask |= wRPC
	}
	syms := slices.Grow(sc.syms[:0], snap.Len())[:snap.Len()]
	evIdx := slices.Grow(sc.evIdx[:0], snap.Len())[:snap.Len()]
	n, unknown, i := 0, 0, int32(-1)
	for _, ws := range words {
		for _, w := range ws {
			i++
			m := w & mask
			if corrID != "" && m&^wKnown == wRequest && snap.At(int(i)).CorrID != corrID {
				continue
			}
			syms[n], evIdx[n] = rune(w>>wSymShift), i
			n += b2i(m == wRequest|wKnown)
			unknown += b2i(m == wRequest)
		}
	}
	sc.syms, sc.evIdx = syms[:n], evIdx[:n]
	mPatternSyms.Add(uint64(n))
	mUnknownSyms.Add(uint64(unknown))
}

// b2i is 1 for true, 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bounds maps events [lo, hi) of the snapshot to the pattern positions
// of their symbols.
func (sc *detectScratch) bounds(lo, hi int) (int, int) {
	sLo, _ := slices.BinarySearch(sc.evIdx, int32(lo))
	sHi, _ := slices.BinarySearch(sc.evIdx, int32(hi))
	return sLo, sHi
}

// index builds the snapshot pattern's table, once per report, with the
// candidates' programs cut as truncate says: for the relaxed matcher
// with the programs bound to it, for the correlated one with every
// symbol in a column. In explain mode the relaxed table also gives every
// symbol a column, so the explaining walks read the same table.
func (a *Analyzer) index(sc *detectScratch, cands fingerprint.Candidates, truncate, corrFiltered, explain bool) {
	sc.truncate = truncate
	if corrFiltered {
		sc.idx.Reset(sc.syms)
	} else {
		sc.idx.ResetBound(sc.syms, cands, truncate, !a.cfg.DisablePruneRPC, explain)
	}
}

// matchStep appends to matched, which must be empty, the operations
// whose candidates match pattern positions [lo, hi), one name per
// operation (a branched operation matches by its first variant that
// hits), stopping once more than limit have matched. The relaxed
// matcher walks every bound candidate in one pass
// (fingerprint.Index.MatchStep); the correlated matcher cuts and tests
// each candidate's program in turn (MatchEach). Its pattern holds one
// operation's own messages, so it requires real coverage beyond the
// offending symbol alone (MatchCorrelated).
func (a *Analyzer) matchStep(sc *detectScratch, cands fingerprint.Candidates, lo, hi, limit int, corrFiltered bool, matched []string) []string {
	if !corrFiltered {
		sc.step = sc.idx.MatchStep(lo, hi, limit, sc.step[:0])
	} else {
		sc.step = sc.idx.MatchEach(cands, limit, sc.step[:0], func(i int) bool {
			return cands.Program(i, sc.truncate, !a.cfg.DisablePruneRPC).MatchCorrelated(sc.idx.Slice(lo, hi))
		})
	}
	for _, i := range sc.step {
		matched = append(matched, cands.Name(int(i)))
	}
	return matched
}

// detect runs Algorithm 2 over a filled snapshot and returns the report.
// It reads only immutable analyzer state (config, compiled library) plus
// the snapshot and writes only the caller's scratch, so concurrent detect
// workers may run it in parallel; all mutable bookkeeping happens in
// finish. In explain mode detect also assembles the report's evidence
// trace (explain.go) — here on the worker, never on the ingest path.
// words are the snapshot's window words, one slice per window chunk
// (detectScratch.wordsOf), unless Detect filled them.
func (a *Analyzer) detect(sc *detectScratch, faultEv trace.Event, kind FaultKind, latency time.Duration, snap *window.Snapshot, words [][]uint32, explain bool) *Report {
	mDetectAttempts.Inc()
	span := hWindowMatch.Start()
	rep := &Report{
		Kind:       kind,
		Fault:      faultEv,
		Latency:    latency,
		DetectedAt: snap.At(snap.Len() - 1).Time,
		TruthOp:    faultEv.OpName,
	}
	rep.ReportDelay = rep.DetectedAt.Sub(faultEv.Time)
	if explain {
		rep.evidence = a.newEvidence(faultEv, kind, latency, snap)
	}

	// Gather every error message in the snapshot (REST and RPC are
	// analyzed together, §5.3.1); the most upstream one tied to the fault
	// selects the offending API.
	offending := faultEv.API
	if kind == Operational {
		i, earlier := 0, 0
		for _, ws := range words {
			for _, w := range ws {
				if w&wFaulty != 0 {
					rep.Errors = append(rep.Errors, *snap.At(i))
					earlier += b2i(i < snap.FaultIndex)
				}
				i++
			}
		}
		offending = a.upstreamAPI(&faultEv, rep.Errors[:earlier])
	}
	rep.OffendingAPI = offending

	// Candidate operations: fingerprints containing the offending API
	// (distinct operation names; branched operations register one
	// fingerprint per variant).
	cands := a.lib.CandidatesForAPI(offending)
	rep.CandidatesByErrorOnly = cands.Names()
	if cands.Len() == 0 {
		rep.Precision = 0
		if rep.evidence != nil {
			// No fingerprint contains the offending API: the whole window
			// is the evidence for the empty verdict.
			recordErrors(rep.evidence, rep.Errors)
			a.finalizeEvidence(rep.evidence, rep, snap, 0, snap.Len())
		}
		span.End()
		return rep
	}

	// Operational faults match the truncated fingerprint (the operation
	// stopped at the fault); performance faults match the whole
	// fingerprint against the whole buffer (the operation proceeds to
	// completion).
	truncate := kind == Operational

	var matched []string
	var beta int
	corrID := ""
	if a.cfg.UseCorrelationIDs {
		corrID = faultEv.CorrID
	}
	a.snapshotPattern(sc, snap, words, corrID)
	a.index(sc, cands, truncate, corrID != "", rep.evidence != nil)
	if rep.evidence != nil {
		rep.evidence.CorrID = corrID
		recordErrors(rep.evidence, rep.Errors)
	}
	if kind == Performance {
		beta = a.cfg.Alpha
		matched = a.matchStep(sc, cands, 0, len(sc.syms), cands.Len(), corrID != "", sc.cur[:0])
		sc.cur = matched
		if rep.evidence != nil {
			// No growth loop for performance faults: the whole window is
			// matched at once.
			rep.evidence.Growth = []tracestore.GrowthStep{{
				Beta: beta, Lo: 0, Hi: snap.Len(),
				Pattern: len(sc.syms), Matched: append([]string(nil), matched...),
				Covered: true,
			}}
		}
	} else {
		matched, beta = a.growContext(sc, snap, cands, corrID, rep.evidence)
	}

	// matched lives in scratch; the report keeps its own copy.
	rep.Candidates = append([]string(nil), matched...)
	rep.Beta = beta
	// θ stays 0 when nothing is blamed, as with no candidates.
	if n, N := len(matched), a.lib.Len(); n > 0 {
		rep.Precision = 1
		if N > 1 {
			rep.Precision = float64(N-n) / float64(N-1)
		}
	}
	if rep.evidence != nil {
		// Explain every candidate against the FINAL context buffer —
		// exactly the view the verdict came from.
		lo, hi := 0, snap.Len()
		sLo, sHi := 0, len(sc.syms)
		if kind == Operational {
			lo, hi = snap.ContextBounds(beta)
			sLo, sHi = sc.bounds(lo, hi)
		}
		a.explainCandidates(rep.evidence, cands, truncate, sc.idx.Slice(sLo, sHi), corrID != "")
		a.finalizeEvidence(rep.evidence, rep, snap, lo, hi)
	}
	span.End()
	return rep
}

// upstreamAPI picks an operational fault's offending API from the wire
// alone (§5.3.1: the most upstream manifestation). Walking back over
// errs, the snapshot's errors before the fault, it takes the API of the
// nearest one sent or received by the fault's serving node (SrcNode),
// sharing a fingerprint with the fault's API and, under
// UseCorrelationIDs, carrying the fault's correlation id if it has one;
// failing that, the fault's own API.
func (a *Analyzer) upstreamAPI(faultEv *trace.Event, errs []trace.Event) trace.API {
	cands := a.lib.CandidatesForAPI(faultEv.API)
	corr := a.cfg.UseCorrelationIDs && faultEv.CorrID != ""
	for i := len(errs) - 1; i >= 0; i-- {
		e := &errs[i]
		if (e.SrcNode == faultEv.SrcNode || e.DstNode == faultEv.SrcNode) &&
			(!corr || e.CorrID == faultEv.CorrID) &&
			a.lib.CandidatesForAPI(e.API).Shares(cands) {
			return e.API
		}
	}
	return faultEv.API
}

// Detect runs Algorithm 2 over one frozen snapshot on the caller's
// goroutine and returns the report without recording it: no RCA, no
// OnReport, no Stats. It is what dispatch runs inline, exposed so the
// operation-detection stage can be measured alone (BenchmarkOpdetect).
// Like Ingest, call it from the receiver goroutine only (it works in the
// inline scratch): a snapshot frozen without window words (window.Push)
// has them filled here by Word, as ingest would have.
func (a *Analyzer) Detect(fault trace.Event, kind FaultKind, latency time.Duration, snap *window.Snapshot) *Report {
	return a.detect(&a.scratch, fault, kind, latency, snap, a.snapWords(snap), false)
}

// Word returns ev's window word as ingest pushes it beside ev
// (window.Dual.PushSeq): its API's symbol and whether it is a request,
// an RPC, an error. A caller freezing its own snapshots pushes it to
// freeze them as the analyzer does. It is a pure function of the frozen
// library and ev, safe from any goroutine.
func (a *Analyzer) Word(ev *trace.Event) uint32 {
	return eventWord(apiWord(a.lib.Table, &ev.API), ev)
}

// snapWords returns snap's window words, filling them into the inline
// scratch when snap carries none.
func (a *Analyzer) snapWords(snap *window.Snapshot) [][]uint32 {
	sc := &a.scratch
	if words := sc.wordsOf(snap); len(words) > 0 {
		return words
	}
	filled := sc.filled[:0]
	for i := 0; i < snap.Len(); i++ {
		filled = append(filled, a.Word(snap.At(i)))
	}
	sc.filled = filled
	sc.words = append(sc.words, filled)
	return sc.words
}

// wordsOf returns the words snap carries, one slice per window chunk,
// in sc: none when snap was frozen without them.
func (sc *detectScratch) wordsOf(snap *window.Snapshot) [][]uint32 {
	sc.words = snap.Words(sc.words[:0])
	return sc.words
}

// c1 and c2 set the context buffer's start (β₀ = c1·α) and growth step
// (δ = c2·α), the paper's §7 values.
const c1, c2 = 0.1, 0.04

// growContext iterates the context buffer from β₀ by δ per side, stopping
// as soon as the precision drops (the matched set grows), per §5.3.1.
// The snapshot's pattern, table and bound programs were built once by the
// caller; each β step only matches them over a wider view (matchStep),
// and an operation with several variants is matched by its first one
// that hits. Once a step's matched set outgrows the previous step's, the
// stop rule has fired and the verdict is the previous set whatever the
// remaining candidates do, so the step ends there — unless ev is non-nil
// (explain mode), which records every step complete, including the final
// one the stop rule rejects. On the bound path a verdict reads only the
// table rows the view starts and ends at, so a step whose view gained no
// row matches exactly the previous step's set and walks nothing. The
// returned names live in sc.
func (a *Analyzer) growContext(sc *detectScratch, snap *window.Snapshot, cands fingerprint.Candidates, corrID string, ev *tracestore.Trace) ([]string, int) {
	beta0 := int(c1 * float64(a.cfg.Alpha))
	delta := int(c2 * float64(a.cfg.Alpha))
	if beta0 < 2 {
		beta0 = 2
	}
	if delta < 1 {
		delta = 1
	}
	sc.prev = sc.prev[:0]
	prevBeta := 0
	armed := !a.cfg.GrowToCover && corrID == ""
	bound := corrID == ""
	rowLo, rowHi := int32(-1), int32(-1) // the last walked step's view, as table rows
	for beta := beta0; ; beta += 2 * delta {
		lo, hi := snap.ContextBounds(beta)
		sLo, sHi := sc.bounds(lo, hi)
		walk := true
		if bound {
			rLo, rHi := sc.idx.Rows(sLo, sHi)
			walk = rLo != rowLo || rHi != rowHi
			rowLo, rowHi = rLo, rHi
		}
		matched := sc.cur[:0]
		if !walk {
			// The previous step was not stopped, so its set is complete.
			matched = append(matched, sc.prev...)
		} else {
			limit := cands.Len() // names this step may match before the stop rule fires
			if armed && len(sc.prev) > 0 && ev == nil {
				limit = len(sc.prev)
			}
			matched = a.matchStep(sc, cands, sLo, sHi, limit, corrID != "", matched)
		}
		sc.cur = matched
		stopped := armed && len(sc.prev) > 0 && len(matched) > len(sc.prev)
		covered := snap.Covered(beta)
		if ev != nil {
			ev.Growth = append(ev.Growth, tracestore.GrowthStep{
				Beta: beta, Lo: lo, Hi: hi, Pattern: sHi - sLo,
				Matched: append([]string(nil), matched...),
				Stopped: stopped, Covered: covered && !stopped,
			})
		}
		if stopped {
			// Precision dropped: keep the tighter previous set.
			return sc.prev, prevBeta
		}
		if covered {
			return matched, beta
		}
		sc.prev, sc.cur = matched, sc.prev
		prevBeta = beta
	}
}

// finish applies a completed report to the analyzer's mutable state —
// stats, report log, RCA, the OnReport callback. In inline mode it runs
// on the receiver goroutine; with a worker pool it runs on the sequenced
// collector, which delivers reports in fault-arrival order so parallel
// detection produces byte-identical output.
func (a *Analyzer) finish(rep *Report) {
	if len(rep.Candidates) > 0 {
		mDetectHits.Inc()
	} else {
		mDetectMisses.Inc()
		a.Stats.FalseNegs++
	}
	if a.rca != nil {
		span := hRCA.Start()
		var rcaEv *tracestore.RCAEvidence
		rep.RootCauses, rcaEv = a.rca(rep)
		if rep.evidence != nil {
			rep.evidence.RCA = rcaEv
		}
		span.End()
	}
	a.Stats.Reports++
	a.Stats.MatchedTotal += uint64(len(rep.Candidates))
	a.reports = append(a.reports, rep)
	if ev := rep.evidence; ev != nil {
		// finish runs in fault-arrival order in both inline and pooled
		// modes, so store contents and eviction order are deterministic.
		for _, rc := range rep.RootCauses {
			ev.RootCauses = append(ev.RootCauses, rc.String())
		}
		ev.DegradedNodes = rep.DegradedNodes
		if a.explain != nil {
			rep.TraceID = a.explain.Put(ev)
		}
		rep.evidence = nil
	}
	if a.onReport != nil {
		a.onReport(rep)
	}
}
