package e2e

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
	"gretel/internal/core"
	"gretel/internal/trace"
)

// Span is one timed call into a layer. Times are nanoseconds since the
// traced lap began. ID is the ordinal of the packet, event or report the
// call handled; the sender-side and analyzer-side spans of one event
// carry the same ID, which joins them across the socket. Parent names
// the span that caused this one as "name#id" ("" for a root).
type Span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanEvery is the sampling of per-packet and per-event spans; reports
// are always recorded. Durations are summed over every call regardless,
// so the per-layer totals are exact and only the span list is sampled.
const spanEvery = 16

// probe is the traced run's instrumentation. It lives entirely in the
// benchmark: timing decorators around Monitor.HandlePacket, Sender.Send,
// core.Capture, Analyzer.Ingest, the RCA hook and OnReport. A nil *probe
// is the untraced run: every method then calls straight through.
//
// The generator goroutine and the analyzer goroutine each own their half
// of the fields; nothing is shared until both have stopped.
type probe struct {
	t0 time.Time

	// Generator side.
	genSpans          []Span
	packets, sends    int
	handleNs, sendNs  int64
	curPacket         int
	sendReturn        []int64 // Send return time of every spanEvery-th event
	wireBytes, writes atomic.Int64

	// Analyzer side.
	anaSpans                  []Span
	ingests, reports, applies int
	ingestNs, detectNs, rcaNs int64
	applyNs, appendNs         int64
	appended, batches         int
	lastBatch                 int64
	dequeue                   []int64 // dequeue time of every spanEvery-th event
	fired                     bool
	curIngest                 int
	// The open group of in-process Ingest calls (boundary).
	groupStart   time.Time
	groupApplyNs int64
}

func newProbe(events int) *probe {
	n := events/spanEvery + 1
	return &probe{
		t0:         time.Now(),
		genSpans:   make([]Span, 0, 2*n),
		anaSpans:   make([]Span, 0, 2*n),
		sendReturn: make([]int64, n),
		dequeue:    make([]int64, n),
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.t0)) }

func spanRef(name string, id int) string {
	return name + "#" + strconv.Itoa(id)
}

// wrapHandle times Monitor.HandlePacket. The sink's Send spans nest
// inside it; the monitor's self time is the difference.
func (p *probe) wrapHandle(handle func(cluster.Packet)) func(cluster.Packet) {
	if p == nil {
		return handle
	}
	return func(pkt cluster.Packet) {
		p.curPacket = p.packets
		p.packets++
		t := p.now()
		handle(pkt)
		e := p.now()
		p.handleNs += e - t
		if p.curPacket%spanEvery == 0 {
			p.genSpans = append(p.genSpans, Span{Name: "agent.monitor.handle_packet", ID: p.curPacket, Start: t, End: e})
		}
	}
}

// send times Sender.Send for event ordinal k.
func (p *probe) send(snd *agent.Sender, ev trace.Event) {
	if p == nil {
		snd.Send(ev)
		return
	}
	k := p.sends
	p.sends++
	t := p.now()
	snd.Send(ev)
	e := p.now()
	p.sendNs += e - t
	if k%spanEvery == 0 {
		sp := Span{Name: "agent.sender.send", ID: k, Start: t, End: e}
		if p.packets > 0 {
			sp.Parent = spanRef("agent.monitor.handle_packet", p.curPacket)
		}
		p.genSpans = append(p.genSpans, sp)
		p.sendReturn[k/spanEvery] = e
	}
}

// dialer counts the bytes the sender writes to its socket.
func (p *probe) dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	if p == nil {
		return nil
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, p: p}, nil
	}
}

type countingConn struct {
	net.Conn
	p *probe
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.wireBytes.Add(int64(n))
	c.p.writes.Add(1)
	return n, err
}

// timedCapture is the decorator around the real *wal.Log.
type timedCapture struct {
	inner core.Capture
	p     *probe
}

func (c *timedCapture) AppendBatch(evs []trace.Event) (uint64, error) {
	t := c.p.now()
	seq, err := c.inner.AppendBatch(evs)
	e := c.p.now()
	c.p.appendNs += e - t
	c.p.appended += len(evs)
	if c.p.curIngest%spanEvery == 0 {
		c.p.anaSpans = append(c.p.anaSpans, Span{Name: "wal.append", ID: c.p.curIngest,
			Parent: spanRef("core.ingest", c.p.curIngest), Start: t, End: e})
	}
	return seq, err
}

func (c *timedCapture) MarkProcessed(seq uint64) {
	t := c.p.now()
	c.inner.MarkProcessed(seq)
	c.p.appendNs += c.p.now() - t
}

func (p *probe) wrapCapture(c core.Capture) core.Capture {
	if p == nil {
		return c
	}
	return &timedCapture{inner: c, p: p}
}

// wrapRCA times the Engine.Hook() call inside a detection.
func (p *probe) wrapRCA(hook func(*core.Report) []core.RootCause) func(*core.Report) []core.RootCause {
	if p == nil {
		return hook
	}
	return func(rep *core.Report) []core.RootCause {
		t := p.now()
		out := hook(rep)
		e := p.now()
		p.rcaNs += e - t
		p.anaSpans = append(p.anaSpans, Span{Name: "rca.analyze", ID: p.reports,
			Parent: spanRef("core.detect", p.curIngest), Start: t, End: e})
		return out
	}
}

// reported is called from OnReport.
func (p *probe) reported() {
	if p == nil {
		return
	}
	t := p.now()
	p.anaSpans = append(p.anaSpans, Span{Name: "core.on_report", ID: p.reports,
		Parent: spanRef("core.detect", p.curIngest), Start: t, End: t})
	p.reports++
	p.fired = true
}

// ingest times one Analyzer.Ingest call. A call during which OnReport
// fired is detection (core.detect, Algorithm 2 plus the RCA hook); one
// during which it did not is plain ingest (pairing, latency tracking,
// window push — and the WAL append when capture is on, which nests).
func (p *probe) ingest(s *sut, ev trace.Event) {
	if p == nil {
		s.a.Ingest(ev)
		return
	}
	k := p.ingests
	p.ingests++
	p.curIngest = k
	p.fired = false
	t := p.now()
	s.a.Ingest(ev)
	e := p.now()
	p.account(k, t, e)
}

func (p *probe) account(k int, t, e int64) {
	switch {
	case p.fired:
		p.detectNs += e - t
		p.anaSpans = append(p.anaSpans, Span{Name: "core.detect", ID: k, Start: t, End: e})
	default:
		p.ingestNs += e - t
		if k%spanEvery == 0 {
			p.anaSpans = append(p.anaSpans, Span{Name: "core.ingest", ID: k,
				Parent: spanRef("agent.sender.send", k), Start: t, End: e})
		}
	}
}

// boundary closes one group of stampEvery in-process Ingest calls and
// opens the next, at a clock reading the lap takes anyway. The direct
// laps spend well under a microsecond on an event, so two clock reads
// around every call would be a fifth of what they measure; timing whole
// groups costs nothing extra, and a group in which OnReport fired counts
// as detection (its few plain ingests are noise beside a detection).
func (p *probe) boundary(at time.Time) {
	if p == nil {
		return
	}
	if !p.groupStart.IsZero() {
		t, e := int64(p.groupStart.Sub(p.t0)), int64(at.Sub(p.t0))
		p.curIngest = p.ingests
		p.account(p.ingests, t, e-(p.applyNs-p.groupApplyNs))
		p.ingests += stampEvery
	}
	p.groupStart, p.groupApplyNs, p.fired = at, p.applyNs, false
}

// closeAnalyzer times the end-of-stream flush, which fires whatever
// snapshots were still filling.
func (p *probe) closeAnalyzer(s *sut) {
	if p == nil {
		s.a.Close()
		return
	}
	p.curIngest = p.ingests
	p.fired = false
	t := p.now()
	s.a.Close()
	e := p.now()
	if p.fired {
		p.account(p.ingests, t, e)
	}
}

func (p *probe) applyState(s *sut, u agent.StateUpdate) {
	if p == nil {
		s.applyState(u)
		return
	}
	t := p.now()
	s.applyState(u)
	e := p.now()
	p.applyNs += e - t
	p.anaSpans = append(p.anaSpans, Span{Name: "rca.store.apply", ID: p.applies, Start: t, End: e})
	p.applies++
}

// batchDone records one DriveWAL batch (read + ingest) and returns at.
func (p *probe) batchDone(at time.Time) time.Time {
	if p == nil {
		return at
	}
	e := int64(at.Sub(p.t0))
	p.anaSpans = append(p.anaSpans, Span{Name: "replay.wal_batch", ID: p.batches, Start: p.lastBatch, End: e})
	p.lastBatch = e
	p.batches++
	return at
}

// drain is the traced analyzer side: the same loop as
// replay.DriveTransport (events → Ingest, state → the rca store, health
// records → NodeGap/NodeRecovered, then Close), with every call timed.
func (p *probe) drain(s *sut, recv *agent.Receiver) {
	events, states, health := recv.Events(), recv.States(), recv.Health()
	for events != nil || states != nil || health != nil {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			if k := p.ingests; k%spanEvery == 0 && k/spanEvery < len(p.dequeue) {
				p.dequeue[k/spanEvery] = p.now()
			}
			p.ingest(s, ev)
		case u, ok := <-states:
			if !ok {
				states = nil
				continue
			}
			p.applyState(s, u)
		case h, ok := <-health:
			if !ok {
				health = nil
				continue
			}
			switch h.Kind {
			case agent.HealthGap, agent.HealthDown:
				s.a.NodeGap(h.Agent, h.Missing, h.At)
			case agent.HealthUp:
				s.a.NodeRecovered(h.Agent)
			}
		}
	}
	p.closeAnalyzer(s)
}

// transitUs returns, for every sampled event, the time from Send
// returning to the analyzer side dequeuing it, in microseconds. The
// stream is one ordered connection with nothing lost, so the k-th event
// sent is the k-th dequeued.
func (p *probe) transitUs() []float64 {
	n := min(p.sends, p.ingests)
	out := make([]float64, 0, n/spanEvery+1)
	for k := 0; k < n; k += spanEvery {
		out = append(out, float64(p.dequeue[k/spanEvery]-p.sendReturn[k/spanEvery])/1e3)
	}
	return out
}

// traceFile is what -trace writes next to the per-layer table.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Sampling int                `json:"span_sampling"`
	Counts   map[string]int     `json:"counts"`
	SelfNs   map[string]int64   `json:"self_ns"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []Span             `json:"spans"`
}

// selfTimes is the per-layer self-time table: each layer's summed span
// time minus the time its child spans cover.
func (p *probe) selfTimes(capWaited time.Duration) map[string]int64 {
	self := map[string]int64{
		"agent.sender.send": p.sendNs,
		"wal.append":        p.appendNs,
		"core.ingest":       p.ingestNs - p.appendNs,
		"core.detect":       p.detectNs - p.rcaNs,
		"rca.analyze":       p.rcaNs,
		"rca.store.apply":   p.applyNs,
	}
	if p.packets > 0 {
		// The closed loop's sleeps at the in-flight cap happen inside the
		// sink, so they are inside HandlePacket's span too.
		self["agent.monitor"] = p.handleNs - p.sendNs - int64(capWaited)
	}
	return self
}

func (p *probe) write(dir, workload string, seed int64, self map[string]int64, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{
		Workload: workload, Seed: seed, Sampling: spanEvery, SelfNs: self, Layers: layers,
		Counts: map[string]int{
			"packets": p.packets, "sends": p.sends, "ingests": p.ingests, "reports": p.reports,
			"state_updates": p.applies, "wal_appended": p.appended, "wal_batches": p.batches,
			"socket_writes": int(p.writes.Load()), "socket_bytes": int(p.wireBytes.Load()),
		},
		Spans: append(p.genSpans, p.anaSpans...),
	}
	body, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, body, 0o644)
}
