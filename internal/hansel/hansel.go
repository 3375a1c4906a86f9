// Package hansel implements the HANSEL baseline (Sharma et al., CoNEXT
// 2015) as the paper characterizes it (§3.1, §9.2): payload-identifier
// based operation stitching that runs on *every* message, with 30-second
// time buckets to tolerate delayed or out-of-order messages.
//
// HANSEL extracts identifiers (instance/tenant/port/request ids) from
// request and response payloads and links messages sharing identifiers
// into chains. On an error it reports the chain of messages leading to
// the fault — a low-level API sequence, not a high-level operation. The
// per-message stitching plus the buffering window make it orders of
// magnitude slower than GRETEL's trigger-on-fault design, which the
// throughput comparison (§7.4.1) quantifies.
//
// The package is an experiment baseline only: `gretel experiments -exp
// hansel`, the throughput comparison and replay.DriveHansel use it. The
// analyzer (internal/core) and its evidence traces (internal/tracestore)
// never import it, and CI fails if they come to.
package hansel

import (
	"time"

	"gretel/internal/trace"
)

// Chain is a stitched message sequence sharing identifiers.
type Chain struct {
	ID       uint64
	Events   []trace.Event
	idents   map[string]bool
	LastSeen time.Time
}

// APIs returns the chain's API sequence.
func (c *Chain) APIs() []trace.API {
	out := make([]trace.API, len(c.Events))
	for i := range c.Events {
		out[i] = c.Events[i].API
	}
	return out
}

// FaultReport is HANSEL's output: the chain of messages that led to an
// error (it does not name the administrative operation).
type FaultReport struct {
	Fault trace.Event
	Chain []trace.Event
	// ReportedAt is when the report left the stitcher — at least one
	// bucket window after the fault arrived.
	ReportedAt time.Time
}

// Config tunes the stitcher.
type Config struct {
	// BucketWindow is the buffering delay applied before any message is
	// stitched, to tolerate out-of-order arrivals (paper: 30 s).
	BucketWindow time.Duration
	// ChainTTL expires idle chains.
	ChainTTL time.Duration
	// MaxChainLen bounds a chain's kept history.
	MaxChainLen int
	// TenantBuckets models the payload tenant-id space HANSEL keys on.
	// The paper notes that "common identifiers, like tenant ID ... may
	// cause a faulty operation to link with several successful
	// operations" (§9.2): with few tenants, unrelated operations share an
	// identifier and merge into one chain. Zero disables tenant linking.
	TenantBuckets int
}

func (c *Config) defaults() {
	if c.BucketWindow == 0 {
		c.BucketWindow = 30 * time.Second
	}
	if c.ChainTTL == 0 {
		c.ChainTTL = 5 * time.Minute
	}
	if c.MaxChainLen == 0 {
		c.MaxChainLen = 512
	}
}

// Stitcher is the HANSEL engine. Unlike GRETEL it does heavy work on
// every message: identifier extraction, chain lookup, and merge.
type Stitcher struct {
	cfg Config

	// bucket holds messages waiting out the reorder window.
	bucket []trace.Event

	chains  map[uint64]*Chain
	byIdent map[string]*Chain
	nextID  uint64

	reports []*FaultReport

	// Stats.
	Events   uint64
	Stitched uint64
	Merges   uint64
}

// New returns a stitcher.
func New(cfg Config) *Stitcher {
	cfg.defaults()
	return &Stitcher{
		cfg:     cfg,
		chains:  make(map[uint64]*Chain),
		byIdent: make(map[string]*Chain),
	}
}

// identifiers extracts the payload identifiers HANSEL keys on. In this
// reproduction the deployment does not carry real tenant payloads, so the
// stitcher keys on the identifiers that ARE on the wire: the ground-truth
// decorations stand in for payload request/instance ids (OpID), plus
// connection and message ids, plus — when TenantBuckets is set — a shared
// tenant id derived from the operation. This reproduces HANSEL's linking
// behavior, including its weakness that common identifiers can link a
// faulty operation to several successful ones (§9.2 item 5).
func (s *Stitcher) identifiers(ev *trace.Event) []string {
	ids := make([]string, 0, 4)
	if ev.OpID != 0 {
		ids = append(ids, "op:"+u64str(ev.OpID))
		if s.cfg.TenantBuckets > 0 {
			ids = append(ids, "tenant:"+u64str(ev.OpID%uint64(s.cfg.TenantBuckets)))
		}
	}
	if ev.ConnID != 0 {
		ids = append(ids, "conn:"+u64str(ev.ConnID))
	}
	if ev.MsgID != "" {
		ids = append(ids, "msg:"+ev.MsgID)
	}
	return ids
}

func u64str(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Ingest buffers one event and drains anything older than the bucket
// window. Stitching work happens on every drained message.
func (s *Stitcher) Ingest(ev trace.Event) {
	s.Events++
	s.bucket = append(s.bucket, ev)
	s.drainUntil(ev.Time.Add(-s.cfg.BucketWindow))
}

// Flush drains the entire bucket (end of stream).
func (s *Stitcher) Flush(now time.Time) {
	s.drainUntil(now.Add(s.cfg.BucketWindow))
}

func (s *Stitcher) drainUntil(cutoff time.Time) {
	i := 0
	for i < len(s.bucket) && !s.bucket[i].Time.After(cutoff) {
		s.stitch(s.bucket[i])
		i++
	}
	if i > 0 {
		s.bucket = append(s.bucket[:0], s.bucket[i:]...)
	}
}

// stitch links one message into a chain by identifier, merging chains
// when a message bridges two, and emits a fault report when the message
// carries an error.
func (s *Stitcher) stitch(ev trace.Event) {
	s.Stitched++
	ids := s.identifiers(&ev)

	var chain *Chain
	for _, id := range ids {
		if c, ok := s.byIdent[id]; ok {
			if chain == nil {
				chain = c
			} else if c != chain {
				s.merge(chain, c)
			}
		}
	}
	if chain == nil {
		s.nextID++
		chain = &Chain{ID: s.nextID, idents: make(map[string]bool)}
		s.chains[chain.ID] = chain
	}
	chain.Events = append(chain.Events, ev)
	if len(chain.Events) > s.cfg.MaxChainLen {
		chain.Events = chain.Events[len(chain.Events)-s.cfg.MaxChainLen:]
	}
	chain.LastSeen = ev.Time
	for _, id := range ids {
		if !chain.idents[id] {
			chain.idents[id] = true
			s.byIdent[id] = chain
		}
	}

	if ev.Faulty() {
		// The report leaves only after the bucket window has already
		// delayed this message — HANSEL's ~30 s reporting latency.
		rep := &FaultReport{
			Fault:      ev,
			Chain:      append([]trace.Event(nil), chain.Events...),
			ReportedAt: ev.Time.Add(s.cfg.BucketWindow),
		}
		s.reports = append(s.reports, rep)
	}

	s.expire(ev.Time)
}

func (s *Stitcher) merge(dst, src *Chain) {
	s.Merges++
	dst.Events = append(dst.Events, src.Events...)
	if len(dst.Events) > s.cfg.MaxChainLen {
		dst.Events = dst.Events[len(dst.Events)-s.cfg.MaxChainLen:]
	}
	for id := range src.idents {
		dst.idents[id] = true
		s.byIdent[id] = dst
	}
	if src.LastSeen.After(dst.LastSeen) {
		dst.LastSeen = src.LastSeen
	}
	delete(s.chains, src.ID)
}

func (s *Stitcher) expire(now time.Time) {
	if len(s.chains) == 0 {
		return
	}
	for id, c := range s.chains {
		if now.Sub(c.LastSeen) > s.cfg.ChainTTL {
			for ident := range c.idents {
				if s.byIdent[ident] == c {
					delete(s.byIdent, ident)
				}
			}
			delete(s.chains, id)
		}
	}
}

// Reports returns the fault reports so far.
func (s *Stitcher) Reports() []*FaultReport { return s.reports }

// OperationsLinked counts the distinct operations (by evaluation-only
// ground truth) present in a fault report's chain — the measure of
// HANSEL's over-linking under shared identifiers.
func (r *FaultReport) OperationsLinked() int {
	seen := map[uint64]bool{}
	for i := range r.Chain {
		if id := r.Chain[i].OpID; id != 0 {
			seen[id] = true
		}
	}
	return len(seen)
}

// Chains returns the live chain count.
func (s *Stitcher) Chains() int { return len(s.chains) }
