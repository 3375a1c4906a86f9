// Package replay is the tcpreplay analogue (§7.4.1): it synthesizes
// high-rate REST/RPC event streams shaped like concurrent OpenStack
// operations, with a configurable fault frequency, and drives them
// through the GRETEL analyzer (or the HANSEL baseline) at full speed to
// measure sustained processing throughput.
//
// The paper replayed captured RPC events at up to 50 Kpps and measured
// the throughput GRETEL sustained for fault frequencies from 1/100 to
// 1/2K messages (Fig 8c). Event timestamps here advance on a virtual
// clock at the configured packet rate; the measurement is wall-clock
// processing time, so Mbps = wire bytes processed / wall seconds.
package replay

import (
	"math/rand"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/hansel"
	"gretel/internal/openstack"
	"gretel/internal/trace"
)

// StreamConfig shapes a synthetic workload stream.
type StreamConfig struct {
	// Ops is the operation mix the stream interleaves.
	Ops []*openstack.Operation
	// Concurrency is the number of simultaneously progressing operation
	// instances.
	Concurrency int
	// Events is the total number of messages to generate.
	Events int
	// FaultEvery injects one REST error per this many messages (0 = no
	// faults).
	FaultEvery int
	// PPS sets the virtual packets-per-second rate used for timestamps.
	PPS int
	// Seed drives all randomness.
	Seed int64
}

func (c *StreamConfig) defaults() {
	if c.Concurrency == 0 {
		c.Concurrency = 100
	}
	if c.Events == 0 {
		c.Events = 100000
	}
	if c.PPS == 0 {
		c.PPS = 50000
	}
}

// cursor walks one operation instance through its steps.
type cursor struct {
	op   *openstack.Operation
	id   uint64
	step int
	// pendingResp holds a response event to emit right after a request.
	pendingResp *trace.Event
}

// Synthesize generates the event stream. Each operation step yields a
// request event followed (a few messages later) by its response; faults
// flip the response of the current message slot into an error, after
// which that instance stops (as a failed operation would).
func Synthesize(cfg StreamConfig) []trace.Event {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if len(cfg.Ops) == 0 {
		cfg.Ops = openstack.CoreOperations()
	}

	var nextID uint64
	newCursor := func() *cursor {
		nextID++
		return &cursor{op: cfg.Ops[rng.Intn(len(cfg.Ops))], id: nextID}
	}
	cursors := make([]*cursor, cfg.Concurrency)
	for i := range cursors {
		cursors[i] = newCursor()
	}

	interval := time.Second / time.Duration(cfg.PPS)
	now := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	var connID uint64
	var msgSeq uint64

	out := make([]trace.Event, 0, cfg.Events)
	emit := func(ev trace.Event) {
		ev.Seq = uint64(len(out) + 1)
		ev.Time = now
		now = now.Add(interval)
		out = append(out, ev)
	}

	for len(out) < cfg.Events {
		c := cursors[rng.Intn(len(cursors))]
		if c.pendingResp != nil {
			resp := *c.pendingResp
			c.pendingResp = nil
			faulty := cfg.FaultEvery > 0 && (len(out)+1)%cfg.FaultEvery == 0 &&
				resp.Type == trace.RESTResponse
			if faulty {
				resp.Status = 500
				resp.ErrorText = "Internal Server Error (injected)"
			}
			emit(resp)
			if faulty {
				// Failed instance: replace with a fresh one.
				*c = *newCursor()
				continue
			}
			c.step++
			if c.step >= len(c.op.Steps) {
				*c = *newCursor()
			}
			continue
		}

		step := c.op.Steps[c.step]
		wire := 150 + rng.Intn(120)
		switch step.API.Kind {
		case trace.REST:
			connID++
			emit(trace.Event{
				Type: trace.RESTRequest, API: step.API, ConnID: connID,
				OpID: c.id, OpName: c.op.Name, WireBytes: wire,
				SrcNode: step.Caller.String() + "-node", DstNode: step.API.Service.String() + "-node",
			})
			c.pendingResp = &trace.Event{
				Type: trace.RESTResponse, API: step.API, ConnID: connID, Status: 200,
				OpID: c.id, OpName: c.op.Name, WireBytes: wire + 30,
				SrcNode: step.API.Service.String() + "-node", DstNode: step.Caller.String() + "-node",
			}
		default:
			msgSeq++
			mid := "rp-" + u64str(msgSeq)
			emit(trace.Event{
				Type: trace.RPCCall, API: step.API, MsgID: mid,
				OpID: c.id, OpName: c.op.Name, WireBytes: wire + 60,
				SrcNode: step.Caller.String() + "-node", DstNode: "rabbitmq-node",
			})
			c.pendingResp = &trace.Event{
				Type: trace.RPCReply, API: step.API, MsgID: mid,
				OpID: c.id, OpName: c.op.Name, WireBytes: wire,
				SrcNode: "rabbitmq-node", DstNode: step.Caller.String() + "-node",
			}
		}
	}
	return out
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

// Result summarizes one replay run.
type Result struct {
	Events       int
	Bytes        uint64
	Wall         time.Duration
	EventsPerSec float64
	Mbps         float64
	Reports      int
	// SnapshotsShed counts detections dropped under backpressure when the
	// analyzer runs with a shedding worker pool (zero in inline mode).
	SnapshotsShed uint64
	// MaxReportDelay is the worst virtual-time delay between a fault
	// message and its report (the paper observed <2 s).
	MaxReportDelay time.Duration
	// Gaps and Missed count monitoring-plane loss records applied to the
	// analyzer when driving from a live transport (DriveTransport):
	// gap/down health records, and the total frames they reported lost.
	Gaps, Missed uint64
	// TracesStored and TracesEvicted report the evidence-trace store's
	// counters after the run — total traces recorded and how many the
	// size cap pushed out. Zero unless the analyzer ran in explain mode.
	TracesStored, TracesEvicted uint64
}

// finish fills in what every analyzer run reports once it is closed:
// rates over the wall time, the report count and worst report delay,
// shed snapshots, and the evidence-trace store's counters when the
// analyzer ran in explain mode.
func (r *Result) finish(a *core.Analyzer) {
	r.rates()
	r.Reports = len(a.Reports())
	r.SnapshotsShed = a.Stats.SnapshotsShed
	for _, rep := range a.Reports() {
		if rep.ReportDelay > r.MaxReportDelay {
			r.MaxReportDelay = rep.ReportDelay
		}
	}
	if s := a.ExplainStore(); s != nil {
		r.TracesStored = s.Stored()
		r.TracesEvicted = s.Evicted()
	}
}

func (r *Result) rates() {
	if r.Wall > 0 {
		r.EventsPerSec = float64(r.Events) / r.Wall.Seconds()
		r.Mbps = float64(r.Bytes) * 8 / 1e6 / r.Wall.Seconds()
	}
}

// ingestChunk is how many events the slice-fed drivers (DriveFrom,
// DriveWAL) hand IngestBatch at a time: with a capture attached, one
// AppendBatch and one MarkProcessed per chunk, like a DriveTransport
// hand-off.
const ingestChunk = 256

// Drive pushes the stream through a GRETEL analyzer at full speed, in
// ingestChunk-sized batches. If the analyzer was configured with a
// detect worker pool (Config.DetectWorkers > 0), detection runs in
// parallel with ingest; Close drains the pipeline before the wall clock
// stops, so the measured throughput includes finishing every report.
func Drive(a *core.Analyzer, events []trace.Event) Result {
	return DriveFrom(a, events, 0, 0)
}

// DriveFrom is Drive with a resume offset and optional pacing: events
// before skip are treated as already ingested (a restarted gretel
// replays them from the WAL, then resumes the synthesized stream
// here), and when pace > 0 the driver sleeps that long per 1000 events,
// checked after each chunk — the crash-recovery smoke uses pacing to
// guarantee a kill -9 lands mid-burst. Closes the analyzer like Drive.
func DriveFrom(a *core.Analyzer, events []trace.Event, skip int, pace time.Duration) Result {
	events = events[min(skip, len(events)):]
	start, bytes0 := time.Now(), a.Stats.Bytes
	const paceEvery = 1000
	sincePace := 0
	for lo := 0; lo < len(events); lo += ingestChunk {
		chunk := events[lo:min(lo+ingestChunk, len(events))]
		a.IngestBatch(chunk)
		if pace > 0 {
			sincePace += len(chunk)
			for sincePace >= paceEvery {
				sincePace -= paceEvery
				time.Sleep(pace)
			}
		}
	}
	a.Close()
	res := Result{Events: len(events), Bytes: a.Stats.Bytes - bytes0, Wall: time.Since(start)}
	res.finish(a)
	return res
}

// DriveTransport drains a live agent.Receiver into the analyzer until
// the receiver is closed: event batches — a socket read's worth each —
// feed IngestRecord and go back to the receiver for reuse, state updates
// feed onState (may be nil), and monitoring-plane health records feed
// the analyzer's graceful degradation — a frame gap or a dark agent
// flushes that node's pending pairs and marks reports degraded until the
// agent returns (core.Analyzer.NodeGap / NodeRecovered). Agent names
// double as node names in per-node deployments; a single merged agent
// degrades under its own name, marking the whole feed. With a capture
// attached, a hand-off is one append and one MarkProcessed — the
// contract WAL replay runs under — and when the capture takes records
// the receiver keeps each hand-off's wire bodies for it to write as they
// are (core.Analyzer.IngestRecord).
//
// All analyzer access stays on this goroutine, preserving Ingest's
// single-caller contract. Returns after a.Close, so Reports and Stats
// are complete.
func DriveTransport(a *core.Analyzer, recv *agent.Receiver, onState func(agent.StateUpdate)) Result {
	if a.TakesRecords() {
		recv.KeepRecords()
	}
	batches, states, health := recv.Batches(), recv.States(), recv.Health()
	start := time.Now()
	events0, bytes0 := a.Stats.Events, a.Stats.Bytes
	for batches != nil || states != nil || health != nil {
		select {
		case b, ok := <-batches:
			if !ok {
				batches = nil
				continue
			}
			a.IngestRecord(b.Events, b.Record)
			recv.Recycle(b)
		case u, ok := <-states:
			if !ok {
				states = nil
				continue
			}
			if onState != nil {
				onState(u)
			}
		case h, ok := <-health:
			if !ok {
				health = nil
				continue
			}
			switch h.Kind {
			case agent.HealthGap, agent.HealthDown:
				a.NodeGap(h.Agent, h.Missing, h.At)
			case agent.HealthUp:
				a.NodeRecovered(h.Agent)
			}
		}
	}
	a.Close()

	res := Result{
		Events: int(a.Stats.Events - events0),
		Bytes:  a.Stats.Bytes - bytes0,
		Wall:   time.Since(start),
		Gaps:   a.Stats.NodeGaps,
		Missed: a.Stats.FramesMissed,
	}
	res.finish(a)
	return res
}

// DriveHansel pushes the same stream through the HANSEL baseline.
func DriveHansel(s *hansel.Stitcher, events []trace.Event) Result {
	start := time.Now()
	for i := range events {
		s.Ingest(events[i])
	}
	if len(events) > 0 {
		s.Flush(events[len(events)-1].Time)
	}
	wall := time.Since(start)

	var bytes uint64
	for i := range events {
		bytes += uint64(events[i].WireBytes)
	}
	res := Result{Events: len(events), Bytes: bytes, Wall: wall, Reports: len(s.Reports())}
	res.rates()
	for _, rep := range s.Reports() {
		if d := rep.ReportedAt.Sub(rep.Fault.Time); d > res.MaxReportDelay {
			res.MaxReportDelay = d
		}
	}
	return res
}
