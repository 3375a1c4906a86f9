// Package tracestore holds GRETEL's evidence traces: the complete,
// replayable record of one Algorithm 2 decision — the paired
// request/response spans of the matched window, every fingerprint
// candidate with its match score and concrete rejection reason, each
// context-buffer growth step, and the RCA inputs behind the root-cause
// verdict. A verdict alone ("op-x, θ=99.9%") asks operators to
// trust passive localization blindly; the trace lets them replay the
// reasoning (the state-graph and event-analysis literature both make
// this the precondition for adoption).
//
// Traces live in a bounded in-memory ring that numbers them 1, 2, … as
// they are stored and holds exactly its capacity. Eviction is oldest
// first and always counted (tracestore.evicted) — the store never drops
// evidence silently. Browsing and export live in http.go
// (/traces endpoints) and export.go (text, NDJSON, Chrome trace-event
// JSON loadable in Perfetto).
package tracestore

import (
	"sync"
	"time"

	"gretel/internal/telemetry"
)

// Store telemetry: stored/evicted are counters (never reset by the
// store), live is the current resident count.
var (
	mStored  = telemetry.GetCounter("tracestore.stored")
	mEvicted = telemetry.GetCounter("tracestore.evicted")
	gLive    = telemetry.GetGauge("tracestore.live")
)

// Window summarizes the frozen α-window a detection ran over: how far
// the dual buffer slid past the fault before freezing, and the event
// bounds the context buffer grew inside.
type Window struct {
	// Alpha is the configured sliding-window size.
	Alpha int `json:"alpha"`
	// Events is the number of messages in the frozen snapshot (≤ α).
	Events int `json:"events"`
	// FaultIndex locates the offending message within the snapshot.
	FaultIndex int `json:"fault_index"`
	// PastEvents/FutureEvents count messages before/after the fault —
	// FutureEvents is how many slides the window made after arming
	// (α/2 on a full snapshot, fewer when Flush fired early).
	PastEvents   int `json:"past_events"`
	FutureEvents int `json:"future_events"`
	// FirstSeq and LastSeq bound the snapshot in receiver sequence.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Truncated marks snapshots frozen before the future half filled
	// (end-of-stream Flush).
	Truncated bool `json:"truncated,omitempty"`
}

// Span is one paired request/response exchange inside the matched
// context buffer — a node of the evidence span tree. Parent is the
// index of the enclosing span (-1 for roots): an RPC nests under the
// REST exchange whose server issued it (matched by correlation id when
// stamped, by node adjacency otherwise).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	API    string `json:"api"`
	Kind   string `json:"kind"` // "REST" | "RPC" | "RPC-cast"
	// Node is the serving endpoint (the request's destination).
	Node     string        `json:"node,omitempty"`
	StartSeq uint64        `json:"start_seq"`
	EndSeq   uint64        `json:"end_seq"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Status   int           `json:"status,omitempty"`
	Error    string        `json:"error,omitempty"`
	// Fault marks the span containing the offending message.
	Fault bool `json:"fault,omitempty"`
	// Unpaired marks half-exchanges whose other side fell outside the
	// context buffer.
	Unpaired bool `json:"unpaired,omitempty"`
}

// Candidate records how one fingerprint fared against the final context
// buffer: its score, and — when it lost — the concrete reason.
type Candidate struct {
	Name string `json:"name"`
	// Variant disambiguates branched operations registering several
	// fingerprints under one name.
	Variant int `json:"variant,omitempty"`
	// FPLen is the symbol count actually matched (after truncation at
	// the offending API and RPC pruning).
	FPLen int `json:"fp_len"`
	// Truncated reports the fingerprint was cut at the offending API.
	Truncated bool `json:"truncated,omitempty"`
	Matched   bool `json:"matched"`
	// Score is the fraction of the match obligation satisfied:
	// mandatory symbols found in order for the ordered walks, pattern
	// coverage for correlation-filtered matching.
	Score float64 `json:"score"`
	// MandatoryHit / MandatoryTotal / Omitted break the score down. For
	// correlation-filtered matching MandatoryHit counts the pattern
	// occurrences the fingerprint explains and MandatoryTotal the
	// pattern's length, so MandatoryHit ≤ MandatoryTotal either way.
	MandatoryHit   int `json:"mandatory_hit"`
	MandatoryTotal int `json:"mandatory_total"`
	Omitted        int `json:"omitted,omitempty"`
	// Reason is the concrete rejection reason, empty on a match.
	Reason string `json:"reason,omitempty"`
}

// GrowthStep is one iteration of the β context-buffer growth loop.
type GrowthStep struct {
	Beta int `json:"beta"`
	// Lo and Hi are the event bounds within the snapshot at this β.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Pattern is the number of matchable symbols in the view.
	Pattern int      `json:"pattern"`
	Matched []string `json:"matched"`
	// Stopped marks the step discarded by the §5.3.1 stop rule (the
	// matched set grew; the previous, tighter set was kept).
	Stopped bool `json:"stopped,omitempty"`
	// Covered marks the step at which the view spanned the snapshot.
	Covered bool `json:"covered,omitempty"`
}

// EventRef references one snapshot event (the error messages feeding
// offending-API selection).
type EventRef struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	API    string    `json:"api"`
	Node   string    `json:"node,omitempty"`
	Status int       `json:"status,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// RCADep is one watched software dependency's status on an examined node.
type RCADep struct {
	Name    string `json:"name"`
	Running bool   `json:"running"`
}

// RCAMetric is one resource time series the RCA engine inspected.
type RCAMetric struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Last    float64 `json:"last"`
	Mean    float64 `json:"mean"`
	Shifted bool    `json:"shifted,omitempty"`
	ShiftTo float64 `json:"shift_to,omitempty"`
}

// RCANode records everything the RCA engine saw on one node.
type RCANode struct {
	Node string `json:"node"`
	// Stage is "error" for nodes the error messages touch (examined
	// first) or "operation" for the wider candidate-operation set.
	Stage    string      `json:"stage"`
	Up       bool        `json:"up"`
	Deps     []RCADep    `json:"deps,omitempty"`
	Metrics  []RCAMetric `json:"metrics,omitempty"`
	Findings []string    `json:"findings,omitempty"`
}

// RCAEvidence is the root-cause verdict's inputs: the nodes examined in
// order, with the metric windows and watcher statuses judged on each.
type RCAEvidence struct {
	Nodes []RCANode `json:"nodes"`
}

// Trace is the complete evidence record behind one fault report.
type Trace struct {
	// ID is the store's number for the trace, assigned by Store.Put.
	// The analyzer stores traces in fault-arrival order, so IDs are
	// identical across DetectWorkers settings.
	ID   uint64 `json:"id"`
	Kind string `json:"kind"` // "operational" | "performance"

	FaultSeq     uint64    `json:"fault_seq"`
	FaultTime    time.Time `json:"fault_time"`
	DetectedAt   time.Time `json:"detected_at"`
	OffendingAPI string    `json:"offending_api"`
	// LatencyMs carries the anomalous latency for performance faults.
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// CorrID is set when correlation-id-filtered matching was used.
	CorrID string `json:"corr_id,omitempty"`
	// RPCPruned records the matcher configuration.
	RPCPruned bool `json:"rpc_pruned,omitempty"`

	Window     Window       `json:"window"`
	Errors     []EventRef   `json:"errors,omitempty"`
	Growth     []GrowthStep `json:"growth"`
	Candidates []Candidate  `json:"candidates"`
	Spans      []Span       `json:"spans"`

	// The verdict, duplicated from the report for self-containment.
	Matched       []string     `json:"matched"`
	Beta          int          `json:"beta"`
	Precision     float64      `json:"precision"`
	RootCauses    []string     `json:"root_causes,omitempty"`
	RCA           *RCAEvidence `json:"rca,omitempty"`
	DegradedNodes []string     `json:"degraded_nodes,omitempty"`
}

// DefaultCap bounds the store when the caller passes cap ≤ 0.
const DefaultCap = 4096

// Store is the bounded evidence-trace store: one mutex-guarded ring
// holding the newest Cap traces. Put numbers traces 1, 2, … in call
// order, so the resident IDs are always Evicted()+1 … Stored() and the
// trace with ID id sits at ring[(id-1) % Cap]. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	ring    []*Trace
	stored  uint64 // traces ever stored, which is also the newest ID
	evicted uint64 // oldest traces pushed out of the ring
}

// New returns a store holding exactly cap traces (DefaultCap when
// cap ≤ 0). When full, Put evicts the oldest trace and counts it in
// tracestore.evicted — never silently.
func New(cap int) *Store {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Store{ring: make([]*Trace, cap)}
}

// Cap returns the capacity.
func (s *Store) Cap() int { return len(s.ring) }

// slot returns the ring index of trace id.
func (s *Store) slot(id uint64) int { return int((id - 1) % uint64(len(s.ring))) }

// Put assigns t the next ID, writes it into t.ID and stores t, evicting
// the oldest trace when Cap are held. It returns the ID.
func (s *Store) Put(t *Trace) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stored-s.evicted == uint64(len(s.ring)) {
		s.evicted++
		mEvicted.Inc()
		gLive.Add(-1)
	}
	s.stored++
	t.ID = s.stored
	s.ring[s.slot(t.ID)] = t
	mStored.Inc()
	gLive.Add(1)
	return t.ID
}

// Get returns the trace with the given ID, or nil when it was evicted or
// never stored.
func (s *Store) Get(id uint64) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id <= s.evicted || id > s.stored {
		return nil
	}
	return s.ring[s.slot(id)]
}

// Len reports the number of resident traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.stored - s.evicted)
}

// Stored reports the total traces ever stored.
func (s *Store) Stored() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored
}

// Evicted reports the total traces evicted under the size cap.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// All returns the resident traces in ascending ID order.
func (s *Store) All() []*Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Trace, 0, s.stored-s.evicted)
	for id := s.evicted + 1; id <= s.stored; id++ {
		out = append(out, s.ring[s.slot(id)])
	}
	return out
}
