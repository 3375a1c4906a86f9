package e2e

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"gretel/bench/loadgen"
	"gretel/bench/tape"
	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/fingerprint"
	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// Workloads lists the six workloads in the order they are documented.
var Workloads = []string{"wire-steady", "stream-durable", "direct-clean", "direct-storm", "wal-recover", "paced-wire"}

// inFlightCap is the closed loops' bound on frames handed to the sender
// and not yet flushed. The sender's spill ring holds 4096; staying at
// half of it means nothing is ever shed.
const inFlightCap = 2048

// stampEvery is how often the closed loops read the clock to remember
// when an input was offered: a stamp per input would cost more than the
// cheapest path spends on an event.
const stampEvery = 8

// mIngested is the product's own count of events the analyzer has taken
// in; the lap waits on it before closing the receiver, because
// Receiver.Close drops whatever its reader has not yet handed over.
var (
	mIngested    = telemetry.GetCounter("core.events_ingested")
	mActiveConns = telemetry.GetGauge("transport.active_connections")
)

// newGate is the in-flight cap over a sender: frames assigned but not
// yet flushed, polled every 64 sends. The closed loops run against it all
// the time. The open loop reaches it only when the machine stalls for
// some 50 ms; it then waits rather than let the sender shed, and the wait
// shows as generator lateness and, because a packet is timed from when it
// was due, as report lag.
func newGate(snd *agent.Sender) *loadgen.Cap {
	return &loadgen.Cap{
		Limit: inFlightCap, Every: 64, Sleep: time.Sleep,
		InFlight: func() uint64 { st := snd.Stats(); return st.Assigned - st.Flushed },
	}
}

// sut is the analyzer half of the system under test, built the way
// cmd/gretel builds it: the product-default core.Config{} (inline ingest
// and detection) with rca.NewStore and rca.NewEngine(...).Hook().
type sut struct {
	a     *core.Analyzer
	store *rca.Store
	// offer is when the input now being processed was handed over; the
	// in-process laps keep it current, the transport laps fill it in
	// afterwards from their stamps.
	offer  time.Time
	fired  []firing
	states atomic.Uint64
}

// firing is one OnReport call.
type firing struct {
	detectedNs int64 // Report.DetectedAt: capture time of the last contributing event
	at, offer  time.Time
}

func newSUT(lib *fingerprint.Library, p *probe) *sut {
	s := &sut{store: rca.NewStore(), fired: make([]firing, 0, 1024)}
	s.a = core.New(lib, core.Config{})
	s.a.SetRCA(p.wrapRCA(rca.NewEngine(lib, s.store, rca.Config{}).Hook()))
	s.a.OnReport(func(rep *core.Report) {
		s.fired = append(s.fired, firing{rep.DetectedAt.UnixNano(), time.Now(), s.offer})
		p.reported()
	})
	return s
}

func (s *sut) applyState(u agent.StateUpdate) {
	s.store.Apply(u)
	s.states.Add(1)
}

// lagsMs turns the lap's firings into report lags in milliseconds.
func (s *sut) lagsMs() []float64 {
	out := make([]float64, len(s.fired))
	for i, f := range s.fired {
		out[i] = float64(f.at.Sub(f.offer)) / 1e6
	}
	return out
}

// lap is what one pass of a workload measured.
type lap struct {
	cost
	// Offered is the events handed to the system, Ingested how many the
	// analyzer took in; the difference is loss. Timed is how many of them
	// the timed region covers (all, except on direct-clean).
	Offered, Ingested, Timed int
	RetainedMB               float64
	LagsMs                   []float64
	V                        verdicts
	GenLateMs                float64
	// Schedule is how long paced-wire's open-loop schedule ran.
	Schedule time.Duration
	// Layer holds counters read at the layer boundaries after the lap.
	Layer map[string]float64
}

// runner runs laps of one workload over one set of inputs.
type runner struct {
	in       *Inputs
	workload string
	workDir  string
	ref      verdicts
	laps     int
	// lagsMs pools the report lags of every lap run so far.
	lagsMs []float64
}

func (r *runner) lap(p *probe) (*lap, error) {
	r.laps++
	var l *lap
	var err error
	switch r.workload {
	case "wire-steady":
		l, err = r.transportLap(p, transport{packets: true})
	case "stream-durable":
		l, err = r.transportLap(p, transport{wal: true})
	case "paced-wire":
		l, err = r.transportLap(p, transport{packets: true, wal: true, paced: true})
	case "direct-clean", "direct-storm":
		l, err = r.directLap(p)
	case "wal-recover":
		l, err = r.recoverLap(p)
	default:
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s lap %d: %w", r.workload, r.laps, err)
	}
	// The oracle: whenever nothing was lost the reports must equal the
	// in-process reference byte for byte.
	if l.Offered == l.Ingested && l.V.Digest != r.ref.Digest {
		return nil, fmt.Errorf("%s lap %d: report digest %s… differs from the in-process reference %s… (%d reports, reference %d)",
			r.workload, r.laps, l.V.Digest[:12], r.ref.Digest[:12], l.V.Reports, r.ref.Reports)
	}
	r.lagsMs = append(r.lagsMs, l.LagsMs...)
	return l, nil
}

// transport selects the variant of the agent → analyzer path.
type transport struct {
	packets bool // start from tape packets through a Monitor (else from parsed events)
	wal     bool // durable capture on the analyzer
	paced   bool // open loop on the tape's compressed schedule (else closed, at the cap)
}

// transportLap drives tape packets (or their parsed events) through
// Sender.Send → loopback TCP → Receiver → replay.DriveTransport → core +
// rca, one generator goroutine and one TCP stream, and times it from the
// first input to the analyzer having drained.
func (r *runner) transportLap(p *probe, o transport) (*lap, error) {
	in := r.in
	var m meter
	m.baseline()

	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	defer recv.Close()
	s := newSUT(in.Lib, p)
	var wlog *wal.Log
	if o.wal {
		dir := filepath.Join(r.workDir, fmt.Sprintf("wal-lap-%d", r.laps))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if wlog, err = wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNone}); err != nil {
			return nil, err
		}
		defer wlog.Close()
		s.a.SetCapture(p.wrapCapture(wlog))
	}
	snd, err := agent.DialConfig(agent.SenderConfig{Addr: recv.Addr(), Dialer: p.dialer()})
	if err != nil {
		return nil, err
	}
	defer snd.Close()
	if err := snd.WaitConnected(10 * time.Second); err != nil {
		return nil, err
	}

	ingested0 := mIngested.Value()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if p != nil {
			p.drain(s, recv)
		} else {
			replay.DriveTransport(s.a, recv, s.applyState)
		}
	}()

	gate := newGate(snd)
	sent := 0
	send := func(ev trace.Event) {
		p.send(snd, ev)
		sent++
		gate.Tick()
	}
	states := in.Tape.States()
	si := 0
	sendStates := func(pkt int) {
		for ; si < len(states) && states[si].After <= pkt; si++ {
			snd.SendState(states[si].Update)
		}
	}

	n := in.Tape.Len()
	if !o.packets {
		n = len(in.Events)
	}
	stamps := make([]time.Time, n/stampEvery+1)
	var sched *loadgen.Schedule
	mon := agent.NewMonitor("agent", send, nil)
	handle := p.wrapHandle(mon.HandlePacket)

	m.begin()
	switch {
	case o.paced:
		span := float64(in.Tape.TimeNs(n-1)-in.Tape.TimeNs(0)) / 1e9
		sched = &loadgen.Schedule{
			Start: time.Now(), T0: in.Tape.TimeNs(0), Now: time.Now, Sleep: time.Sleep,
			Compress: in.Sizes.PacedRate * span / float64(in.TapeEvents),
		}
		for i := 0; i < n; i++ {
			sendStates(i)
			sched.Wait(in.Tape.TimeNs(i))
			handle(in.Tape.Packet(i))
		}
	case o.packets:
		for i := 0; i < n; i++ {
			sendStates(i)
			if i%stampEvery == 0 {
				stamps[i/stampEvery] = time.Now()
			}
			handle(in.Tape.Packet(i))
		}
	default:
		for i := 0; i < n; i++ {
			sendStates(int(in.EventPkt[i]))
			if i%stampEvery == 0 {
				stamps[i/stampEvery] = time.Now()
			}
			send(in.Events[i])
		}
	}
	sendStates(in.Tape.Len())
	if err := snd.Drain(time.Minute); err != nil {
		return nil, err
	}
	// Everything is on the wire. Wait until the analyzer has taken in (or
	// the receiver has declared missing) every frame, then close the
	// receiver so DriveTransport flushes and returns.
	assigned := snd.Stats().Assigned
	deadline := time.Now().Add(time.Minute)
	for {
		got := mIngested.Value() - ingested0 + s.states.Load() + recv.AgentStats()["agent"].Missing
		if got >= assigned {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("analyzer took in %d of %d frames within a minute", got, assigned)
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Sender first, and the receiver only once its reader has seen the
	// end of the stream: closed in the other order the reader logs a reset.
	if err := snd.Close(); err != nil {
		return nil, err
	}
	for t := time.Now(); mActiveConns.Value() > 0 && time.Since(t) < 100*time.Millisecond; {
		time.Sleep(50 * time.Microsecond)
	}
	recv.Close()
	<-drained
	l := &lap{cost: m.end(), Offered: sent, Ingested: int(s.a.Stats.Events)}
	l.Timed = l.Ingested
	l.RetainedMB = m.retainedMB()
	runtime.KeepAlive(snd)
	runtime.KeepAlive(mon)

	// Ledgers: every frame the sender assigned was delivered or declared
	// missing; every ingested event was appended to the WAL.
	st := recv.AgentStats()["agent"]
	if delivered := uint64(l.Ingested) + s.states.Load(); delivered+st.Missing != assigned {
		return nil, fmt.Errorf("transport ledger open: delivered %d + missing %d != sent %d", delivered, st.Missing, assigned)
	}
	if st.Missing != 0 || st.Dups != 0 || snd.Stats().Shed != 0 || l.Ingested != sent {
		return nil, fmt.Errorf("events lost: sent %d ingested %d missing %d dups %d shed %d",
			sent, l.Ingested, st.Missing, st.Dups, snd.Stats().Shed)
	}
	if wlog != nil {
		if ws := wlog.Stats(); ws.Appended != uint64(l.Ingested) || s.a.Stats.CaptureErrors != 0 {
			return nil, fmt.Errorf("wal ledger open: appended %d of %d ingested events (%d capture errors)",
				ws.Appended, l.Ingested, s.a.Stats.CaptureErrors)
		}
	}

	// Report lag: from when the packet that produced Report.DetectedAt —
	// the last event contributing to the verdict, so the window fill is
	// excluded — was due (open loop) or handed over (closed loop).
	for i := range s.fired {
		f := &s.fired[i]
		switch {
		case o.paced:
			f.offer = sched.Due(f.detectedNs)
		case o.packets:
			f.offer = stamps[in.pktIndexAt(f.detectedNs)/stampEvery]
		default:
			f.offer = stamps[in.eventIndexAt(f.detectedNs)/stampEvery]
		}
	}
	l.LagsMs = s.lagsMs()
	if sched != nil {
		l.GenLateMs = float64(sched.LateMax) / 1e6
		l.Schedule = sched.Due(in.Tape.TimeNs(n - 1)).Sub(sched.Start)
	}
	if l.V, err = in.score(r.workload, s.a.Reports()); err != nil {
		return nil, err
	}
	l.Layer = map[string]float64{
		"agent.monitor.packets":          float64(in.Tape.Len()),
		"agent.monitor.events":           float64(sent),
		"agent.monitor.parse_errors":     float64(mon.ParseErrors),
		"agent.sender.wait_ns_per_event": float64(gate.Waited) / float64(sent),
		"agent.sender.inflight_max":      float64(gate.Max),
		"agent.sender.shed":              float64(snd.Stats().Shed),
		"agent.receiver.missing":         float64(st.Missing),
		"agent.receiver.dups":            float64(st.Dups),
	}
	if o.packets {
		l.Layer["agent.monitor.ignored_share"] = float64(mon.Ignored) / float64(in.Tape.Len())
	} else {
		l.Layer["agent.monitor.packets"], l.Layer["agent.monitor.events"] = 0, 0
	}
	if wlog != nil {
		ws := wlog.Stats()
		l.Layer["wal.append.disk_bytes_per_event"] = float64(ws.Bytes) / float64(l.Ingested)
		l.Layer["wal.append.syncs"] = float64(ws.Synced)
		l.Layer["wal.append.segments"] = float64(ws.Segments)
	}
	s.coreLayer(l)
	return l, nil
}

// coreLayer reads the analyzer's own counters into the lap.
func (s *sut) coreLayer(l *lap) {
	st := s.a.Stats
	l.Layer["core.ingest.pairs"] = float64(st.RESTPairs + st.RPCPairs)
	l.Layer["core.ingest.pairs_evicted"] = float64(st.PairsEvicted)
	l.Layer["core.detect.reports"] = float64(st.Reports)
}

// directLap feeds a synthetic stream straight into Analyzer.Ingest on
// the caller's goroutine; direct-storm also applies its state updates to
// the rca.Store where they fall in the stream.
//
// direct-clean's timed region is its fault-free body alone, so that
// core.ingest is all of the work measured. The lag metrics still need
// reports, so the lap then feeds the same analyzer an untimed tail that
// does carry faults, and takes the report lags (and the verdicts the
// oracle checks) from there.
func (r *runner) directLap(p *probe) (*lap, error) {
	in := r.in
	body, tail := in.stream(r.workload), []trace.Event(nil)
	var states []tape.State
	if r.workload == "direct-storm" {
		states = in.StormStates
	} else {
		body, tail = in.Clean[:in.Sizes.CleanEvents], in.Clean[in.Sizes.CleanEvents:]
	}
	var m meter
	m.baseline()
	s := newSUT(in.Lib, p)
	feed := func(evs []trace.Event) {
		for i, si := 0, 0; i < len(evs); i++ {
			for ; si < len(states) && states[si].After <= i; si++ {
				p.applyState(s, states[si].Update)
			}
			if i%stampEvery == 0 {
				s.offer = time.Now()
				p.boundary(s.offer)
			}
			s.a.Ingest(evs[i])
		}
		if p != nil {
			p.boundary(time.Now())
			p.groupStart = time.Time{}
		}
	}

	m.begin()
	feed(body)
	if len(tail) == 0 {
		p.closeAnalyzer(s)
	}
	l := &lap{cost: m.end(), Timed: len(body), Layer: map[string]float64{}}
	l.RetainedMB = m.retainedMB()
	if len(tail) > 0 {
		feed(tail)
		p.closeAnalyzer(s)
	}
	l.Offered, l.Ingested = len(body)+len(tail), int(s.a.Stats.Events)
	l.LagsMs = s.lagsMs()
	var err error
	if l.V, err = in.score(r.workload, s.a.Reports()); err != nil {
		return nil, err
	}
	s.coreLayer(l)
	return l, nil
}

// recoverLap is boot recovery: replay.DriveWAL over the pre-written log
// into a fresh analyzer, then the end-of-stream flush. DriveWAL reads
// and ingests in batches and only its batch boundaries are visible from
// outside, so a report's lag here runs from the start of the batch that
// held its last event.
func (r *runner) recoverLap(p *probe) (*lap, error) {
	in := r.in
	var m meter
	m.baseline()
	s := newSUT(in.Lib, p)

	m.begin()
	s.offer = time.Now()
	res, err := replay.DriveWAL(s.a, in.WALDir, replay.WALDrive{
		OnBatch: func(int, int, uint64) { s.offer = p.batchDone(time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	p.closeAnalyzer(s)
	l := &lap{cost: m.end(), Offered: len(in.Events), Ingested: int(s.a.Stats.Events), Layer: map[string]float64{}}
	l.Timed = l.Ingested
	l.RetainedMB = m.retainedMB()

	rs := res.Recovery
	if rs.Records+rs.Quarantined != uint64(len(in.Events)) || rs.Quarantined != 0 || res.Events != len(in.Events) {
		return nil, fmt.Errorf("wal recovery ledger open: recovered %d + quarantined %d != written %d (fed %d)",
			rs.Records, rs.Quarantined, len(in.Events), res.Events)
	}
	l.LagsMs = s.lagsMs()
	if l.V, err = in.score(r.workload, s.a.Reports()); err != nil {
		return nil, err
	}
	l.Layer["wal.read.quarantined"] = float64(rs.Quarantined)
	s.coreLayer(l)
	return l, nil
}
