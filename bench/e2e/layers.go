package e2e

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gretel/bench/loadgen"
	"gretel/internal/agent"
	"gretel/internal/amqp"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/rca"
	"gretel/internal/rest"
	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
	"gretel/internal/wal"
	"gretel/internal/window"
)

// PerLayer is every per-layer metric, printed by a traced run. Layer
// names are the product's package names. A metric the workload's path
// does not exercise reads 0.
var PerLayer = []MetricDef{
	{"agent.monitor.packets", "count"},
	{"agent.monitor.events", "count"},
	{"agent.monitor.ignored_share", "ratio"},
	{"agent.monitor.parse_errors", "count"},
	{"agent.monitor.self_ns_per_event", "ns"},
	{"agent.monitor.cpu_ns_per_event", "ns"},
	{"agent.monitor.allocs_per_event", "count"},
	{"agent.monitor.bytes_per_event", "B"},
	{"rest.parse.ns_per_msg", "ns"},
	{"amqp.unmarshal.ns_per_msg", "ns"},
	{"agent.sender.send_ns_per_event", "ns"},
	{"agent.sender.cpu_ns_per_event", "ns"},
	{"agent.sender.allocs_per_event", "count"},
	{"agent.sender.wire_bytes_per_event", "B"},
	{"agent.sender.wait_ns_per_event", "ns"},
	{"agent.sender.inflight_max", "count"},
	{"agent.sender.shed", "count"},
	{"agent.receiver.ns_per_event", "ns"},
	{"agent.receiver.cpu_ns_per_event", "ns"},
	{"agent.receiver.allocs_per_event", "count"},
	{"agent.receiver.missing", "count"},
	{"agent.receiver.dups", "count"},
	{"agent.transport.cpu_ns_per_event", "ns"},
	{"agent.transit.p50_us", "us"},
	{"agent.transit.p95_us", "us"},
	{"wal.append.ns_per_event", "ns"},
	{"wal.append.allocs_per_event", "count"},
	{"wal.append.disk_bytes_per_event", "B"},
	{"wal.append.syncs", "count"},
	{"wal.append.segments", "count"},
	{"wal.read.ns_per_event", "ns"},
	{"wal.read.allocs_per_event", "count"},
	{"wal.read.quarantined", "count"},
	{"core.ingest.ns_per_event", "ns"},
	{"core.allocs_per_event", "count"},
	{"core.cpu_ns_per_event", "ns"},
	{"core.ingest.pairs", "count"},
	{"core.ingest.pairs_evicted", "count"},
	{"tsoutliers.observe.ns_per_sample", "ns"},
	{"window.push.ns_per_event", "ns"},
	{"core.detect.ms_per_report", "ms"},
	{"core.detect.reports", "count"},
	{"core.detect.beta_mean", "count"},
	{"core.detect.candidates_mean", "count"},
	{"core.detect.hit_share", "ratio"},
	{"core.detect.precision_mean", "ratio"},
	{"rca.analyze.ms_per_report", "ms"},
	{"rca.store.apply_ns_per_update", "ns"},
	{"rca.root_causes_per_report", "count"},
	{"core.ingest.sharded_ratio", "ratio"},
	{"core.detect.pooled_ratio", "ratio"},
	{"tracestore.ms_per_trace", "ms"},
	{"tracestore.bytes_per_trace", "B"},
	{"export.sample.us_per_sample", "us"},
	{"export.sample.points", "count"},
	{"pipeline.gomaxprocs", "count"},
	{"pipeline.p1_events_per_s", "1/s"},
	{"pipeline.speedup", "ratio"},
	{"pipeline.cpu_ns_per_event", "ns"},
	{"pipeline.sum_of_layers_share", "ratio"},
	{"pipeline.trace_overhead_share", "ratio"},
	{"loss_share", "ratio"},
	{"missed_fault_share", "ratio"},
	{"report_lag_p95_ms", "ms"},
	{"report_lag_samples", "count"},
	{"gen_late_ms_max", "ms"},
}

// inputCount is how many packets or events one lap of the workload offers.
func (in *Inputs) inputCount(workload string) int {
	if in.Tape != nil {
		return in.Tape.Len()
	}
	return len(in.stream(workload))
}

// stage is what a stage-isolated run cost per unit of work.
type stage struct{ ns, cpuNs, allocs, bytes float64 }

// isolate runs one layer alone and meters it.
func isolate(units int, fn func() error) (stage, error) {
	runtime.GC()
	var m meter
	m.begin()
	if err := fn(); err != nil {
		return stage{}, err
	}
	c := m.end()
	u := float64(units)
	return stage{float64(c.Wall) / u, float64(c.CPU) / u, float64(c.Mallocs) / u, float64(c.Bytes) / u}, nil
}

// perLayer is the traced run: one untraced and one traced lap of the
// workload, then the stage-isolated runs of the layers on its path. The
// traced lap gives time per layer as it runs inside the pipeline; the
// isolated runs give what cannot be seen from outside a running
// pipeline — allocations per layer, and CPU per layer for the budget.
func (r *runner) perLayer(opt Options, procs int) (map[string]float64, error) {
	in := r.in
	// Two untraced and two traced laps, alternating: the traced lap gives
	// the per-layer times, and the pairs give the tracing overhead without
	// one slow lap deciding its sign.
	var plain, tl *lap
	var p *probe
	var overhead float64
	rate := func(l *lap) float64 { return float64(l.Timed) / l.Wall.Seconds() }
	for i := 0; i < 2; i++ {
		var err error
		if plain, err = r.lap(nil); err != nil {
			return nil, err
		}
		p = newProbe(in.inputCount(r.workload))
		if tl, err = r.lap(p); err != nil {
			return nil, err
		}
		overhead += (1 - rate(tl)/rate(plain)) / 2
	}
	var err error
	out := map[string]float64{}
	for k, v := range tl.Layer {
		out[k] = v
	}
	perEvent := func(total int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	capWaited := time.Duration(out["agent.sender.wait_ns_per_event"] * float64(tl.Offered))
	self := p.selfTimes(capWaited)
	out["agent.monitor.self_ns_per_event"] = perEvent(self["agent.monitor"], p.sends)
	out["agent.sender.send_ns_per_event"] = perEvent(p.sendNs, p.sends)
	out["agent.sender.wire_bytes_per_event"] = perEvent(p.wireBytes.Load(), p.sends)
	out["wal.append.ns_per_event"] = perEvent(p.appendNs, p.appended)
	out["core.ingest.ns_per_event"] = perEvent(self["core.ingest"], p.ingests)
	out["core.detect.ms_per_report"] = perEvent(self["core.detect"], p.reports) / 1e6
	out["rca.analyze.ms_per_report"] = perEvent(p.rcaNs, p.reports) / 1e6
	out["rca.store.apply_ns_per_update"] = perEvent(p.applyNs, p.applies)
	if tr := p.transitUs(); len(tr) > 0 && p.sends > 0 {
		if out["agent.transit.p50_us"], err = loadgen.Percentile(tr, 0.50); err != nil {
			return nil, fmt.Errorf("transit: %w", err)
		}
		if out["agent.transit.p95_us"], err = loadgen.Percentile(tr, 0.95); err != nil {
			return nil, fmt.Errorf("transit: %w", err)
		}
	}
	reps := float64(max(tl.V.Reports, 1))
	out["core.detect.beta_mean"] = float64(tl.V.Beta) / reps
	out["core.detect.candidates_mean"] = float64(tl.V.Candidates) / reps
	out["core.detect.precision_mean"] = tl.V.Precision / reps
	out["core.detect.hit_share"] = float64(tl.V.Hits) / float64(tl.V.Faults)
	out["rca.root_causes_per_report"] = float64(tl.V.RootCauses) / reps
	out["loss_share"] = float64(tl.Offered-tl.Ingested) / float64(tl.Offered)
	out["missed_fault_share"] = float64(tl.V.missed()) / float64(tl.V.Faults)
	// The tail of the report lag has no bound of its own (on two cores its
	// spread between runs of one build is wider than any bound the
	// benchmark may set), so it is reported here, over every lap so far.
	lags := append([]float64(nil), r.lagsMs...)
	if out["report_lag_p95_ms"], err = loadgen.Percentile(lags, 0.95); err != nil {
		return nil, fmt.Errorf("report lag: %w", err)
	}
	out["report_lag_samples"] = float64(len(lags))
	out["gen_late_ms_max"] = tl.GenLateMs
	out["pipeline.gomaxprocs"] = float64(procs)
	out["pipeline.trace_overhead_share"] = overhead

	// Stage-isolated runs. budget sums the per-event CPU of the layers on
	// the workload's path, to be set against the whole pipeline's.
	var budget float64
	needCore := false
	switch r.workload {
	case "wire-steady":
		mon, err := isoMonitor(in)
		if err != nil {
			return nil, err
		}
		out["agent.monitor.cpu_ns_per_event"] = mon.cpuNs
		out["agent.monitor.allocs_per_event"], out["agent.monitor.bytes_per_event"] = mon.allocs, mon.bytes
		if out["rest.parse.ns_per_msg"], out["amqp.unmarshal.ns_per_msg"], err = isoParse(in); err != nil {
			return nil, err
		}
		budget += mon.cpuNs
		fallthrough
	case "stream-durable":
		snd, frames, err := isoSender(in)
		if err != nil {
			return nil, err
		}
		out["agent.sender.cpu_ns_per_event"], out["agent.sender.allocs_per_event"] = snd.cpuNs, snd.allocs
		rcv, err := isoReceiver(in, frames)
		if err != nil {
			return nil, err
		}
		out["agent.receiver.ns_per_event"], out["agent.receiver.cpu_ns_per_event"], out["agent.receiver.allocs_per_event"] = rcv.ns, rcv.cpuNs, rcv.allocs
		// For the budget the two halves run together over one socket: run
		// apart, each pays for a peer (a sink, a replayer) the pipeline
		// does not have, and the kernel's work is counted on both sides.
		tr, err := isoTransport(in)
		if err != nil {
			return nil, err
		}
		out["agent.transport.cpu_ns_per_event"] = tr.cpuNs
		budget += tr.cpuNs
		if r.workload == "stream-durable" {
			app, err := isoWALAppend(in, r.workDir)
			if err != nil {
				return nil, err
			}
			out["wal.append.allocs_per_event"] = app.allocs
			budget += app.cpuNs
		}
		needCore = true
	case "wal-recover":
		rd, err := isoWALRead(in)
		if err != nil {
			return nil, err
		}
		out["wal.read.ns_per_event"], out["wal.read.allocs_per_event"] = rd.ns, rd.allocs
		budget += rd.cpuNs
		needCore = true
	case "direct-clean":
		out["tsoutliers.observe.ns_per_sample"] = isoDetector()
		out["window.push.ns_per_event"] = isoWindow(in.Clean, in.Lib.MaxLen())
		body := in.Clean[:in.Sizes.CleanEvents]
		inline, sharded := in.directRate(body, core.Config{}), in.directRate(body, core.Config{IngestShards: procs})
		out["core.ingest.sharded_ratio"] = sharded / inline
	case "direct-storm":
		inline, pooled := in.directRate(in.Storm, core.Config{}), in.directRate(in.Storm, core.Config{DetectWorkers: procs})
		out["core.detect.pooled_ratio"] = pooled / inline
		out["tracestore.ms_per_trace"], out["tracestore.bytes_per_trace"] = in.explainCost()
	}
	if needCore {
		// The analyzer alone over the tape's events, in process: its CPU for
		// the budget, and on wal-recover (where DriveWAL hides the Ingest
		// calls) its time per layer too.
		cp := newProbe(len(in.Events))
		st, err := isolate(len(in.Events), func() error { return in.isoCore(cp) })
		if err != nil {
			return nil, err
		}
		out["core.cpu_ns_per_event"], out["core.allocs_per_event"] = st.cpuNs, st.allocs
		budget += st.cpuNs
		if r.workload == "wal-recover" {
			self = cp.selfTimes(0)
			self["wal.read"] = int64(out["wal.read.ns_per_event"] * float64(len(in.Events)))
			out["core.ingest.ns_per_event"] = perEvent(self["core.ingest"], cp.ingests)
			out["core.detect.ms_per_report"] = perEvent(self["core.detect"], cp.reports) / 1e6
			out["rca.analyze.ms_per_report"] = perEvent(cp.rcaNs, cp.reports) / 1e6
		}
	} else if in.Tape == nil {
		// The direct workloads are the analyzer alone already.
		out["core.cpu_ns_per_event"] = float64(plain.CPU) / float64(plain.Timed)
		out["core.allocs_per_event"] = float64(plain.Mallocs) / float64(plain.Timed)
	}
	out["pipeline.cpu_ns_per_event"] = float64(plain.CPU) / float64(plain.Timed)
	if budget > 0 {
		out["pipeline.sum_of_layers_share"] = budget / out["pipeline.cpu_ns_per_event"]
	}
	if r.workload == "wire-steady" {
		// The single-threaded baseline, and what the extra processors buy.
		runtime.GOMAXPROCS(1)
		one, err := r.lap(nil)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return nil, err
		}
		out["pipeline.p1_events_per_s"] = rate(one)
		out["pipeline.speedup"] = rate(plain) / rate(one)
		out["export.sample.us_per_sample"], out["export.sample.points"] = isoExportSample()
	}

	path, err := p.write(opt.OutDir, r.workload, in.Seed, self, out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(opt.Log, "trace: %d spans written to %s\nper-layer self time (ns per event):\n", len(p.genSpans)+len(p.anaSpans), path)
	for _, name := range []string{"agent.monitor", "agent.sender.send", "wal.append", "wal.read", "core.ingest", "core.detect", "rca.analyze", "rca.store.apply"} {
		if v, ok := self[name]; ok && v > 0 {
			fmt.Fprintf(opt.Log, "  %-20s %10.1f\n", name, float64(v)/float64(tl.Ingested))
		}
	}
	return out, nil
}

// isoMonitor runs a Monitor alone over the tape, its sink discarding.
func isoMonitor(in *Inputs) (stage, error) {
	return isolate(in.TapeEvents, func() error {
		mon := agent.NewMonitor("agent", func(trace.Event) {}, nil)
		for i := 0; i < in.Tape.Len(); i++ {
			mon.HandlePacket(in.Tape.Packet(i))
		}
		return nil
	})
}

// isoParse loops rest.ParseRequest/ParseResponse and amqp.Unmarshal
// alone over the tape's payloads. The simulator sends one whole message
// per packet, so each payload parses on its own.
func isoParse(in *Inputs) (restNs, amqpNs float64, err error) {
	var restIdx, amqpIdx []int32
	for i := 0; i < in.Tape.Len(); i++ {
		if pl := in.Tape.Packet(i).Payload; amqp.IsAMQP(pl) {
			amqpIdx = append(amqpIdx, int32(i))
		} else if _, _, err := rest.ParseRequest(pl); err == nil || rest.IsResponse(pl) {
			restIdx = append(restIdx, int32(i))
		}
	}
	if len(restIdx) == 0 || len(amqpIdx) == 0 {
		return 0, 0, errors.New("tape holds no REST or no AMQP payloads")
	}
	rs, err := isolate(len(restIdx), func() error {
		for _, i := range restIdx {
			pl := in.Tape.Packet(int(i)).Payload
			var perr error
			if rest.IsResponse(pl) {
				_, _, perr = rest.ParseResponse(pl)
			} else {
				_, _, perr = rest.ParseRequest(pl)
			}
			if perr != nil {
				return fmt.Errorf("rest payload %d: %w", i, perr)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	as, err := isolate(len(amqpIdx), func() error {
		for _, i := range amqpIdx {
			if _, _, perr := amqp.Unmarshal(in.Tape.Packet(int(i)).Payload); perr != nil {
				return fmt.Errorf("amqp payload %d: %w", i, perr)
			}
		}
		return nil
	})
	return rs.ns, as.ns, err
}

// sinkConn is the sender's socket in the sender-only run: writes succeed
// at once and are kept, so the receiver-only run can replay them.
type sinkConn struct {
	buf    []byte
	closed chan struct{}
}

func (c *sinkConn) Write(b []byte) (int, error) { c.buf = append(c.buf, b...); return len(b), nil }
func (c *sinkConn) Read([]byte) (int, error)    { <-c.closed; return 0, io.EOF }
func (c *sinkConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}
func (c *sinkConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// isoSender runs Sender.Send and the sender's writer alone: encode,
// ring, frame writes into memory. It returns the exact bytes written.
func isoSender(in *Inputs) (stage, []byte, error) {
	// Sized up front so the capture's own growth is not billed to the sender.
	conn := &sinkConn{buf: make([]byte, 0, 1024*len(in.Events)), closed: make(chan struct{})}
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr:   "sink",
		Dialer: func(string, time.Duration) (net.Conn, error) { return conn, nil },
	})
	if err != nil {
		return stage{}, nil, err
	}
	defer snd.Close()
	if err := snd.WaitConnected(10 * time.Second); err != nil {
		return stage{}, nil, err
	}
	st, err := isolate(len(in.Events), func() error { return sendAll(in, snd) })
	if err != nil {
		return stage{}, nil, err
	}
	if shed := snd.Stats().Shed; shed != 0 {
		return stage{}, nil, fmt.Errorf("sender-only run shed %d frames", shed)
	}
	if err := snd.Close(); err != nil {
		return stage{}, nil, err
	}
	return st, conn.buf, nil
}

// drainCount consumes a receiver's three streams, discarding everything,
// and sends the number of events seen once want have arrived (or, short
// of that, when the receiver closes).
func drainCount(recv *agent.Receiver, want int) <-chan int {
	got := make(chan int, 1)
	go func() {
		n := 0
		events, states, health := recv.Events(), recv.States(), recv.Health()
		for events != nil {
			select {
			case _, ok := <-events:
				if !ok {
					events = nil
				} else if n++; n == want {
					got <- n
				}
			case _, ok := <-states:
				if !ok {
					states = nil
				}
			case _, ok := <-health:
				if !ok {
					health = nil
				}
			}
		}
		if n != want {
			got <- n
		}
	}()
	return got
}

func awaitCount(got <-chan int, want int, what string) error {
	select {
	case n := <-got:
		if n != want {
			return fmt.Errorf("%s delivered %d of %d events", what, n, want)
		}
		return nil
	case <-time.After(time.Minute):
		return fmt.Errorf("%s did not deliver every event within a minute", what)
	}
}

// isoReceiver replays captured frame bytes over loopback into a
// Receiver whose consumer only drains.
func isoReceiver(in *Inputs, frames []byte) (stage, error) {
	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return stage{}, err
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		return stage{}, err
	}
	defer conn.Close()
	want := len(in.Events)
	got := drainCount(recv, want)
	st, err := isolate(want, func() error {
		const chunk = 64 << 10
		for off := 0; off < len(frames); off += chunk {
			if _, err := conn.Write(frames[off:min(off+chunk, len(frames))]); err != nil {
				return err
			}
		}
		return awaitCount(got, want, "receiver-only run")
	})
	if err != nil {
		return stage{}, err
	}
	if as := recv.AgentStats()["agent"]; as.Missing != 0 || as.Dups != 0 {
		return stage{}, fmt.Errorf("receiver-only run: missing %d dups %d", as.Missing, as.Dups)
	}
	return st, nil
}

// isoTransport runs the whole agent → analyzer hop alone: Sender.Send,
// loopback TCP, Receiver, and a consumer that only drains.
func isoTransport(in *Inputs) (stage, error) {
	recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return stage{}, err
	}
	defer recv.Close()
	snd, err := agent.DialConfig(agent.SenderConfig{Addr: recv.Addr()})
	if err != nil {
		return stage{}, err
	}
	defer snd.Close()
	if err := snd.WaitConnected(10 * time.Second); err != nil {
		return stage{}, err
	}
	want := len(in.Events)
	got := drainCount(recv, want)
	return isolate(want, func() error {
		if err := sendAll(in, snd); err != nil {
			return err
		}
		return awaitCount(got, want, "transport-only run")
	})
}

// sendAll hands the tape's parsed events and in-line state updates to a
// sender under the closed loops' in-flight cap, and drains it.
func sendAll(in *Inputs, snd *agent.Sender) error {
	gate := newGate(snd)
	states := in.Tape.States()
	si := 0
	for i := range in.Events {
		for ; si < len(states) && states[si].After <= int(in.EventPkt[i]); si++ {
			snd.SendState(states[si].Update)
		}
		snd.Send(in.Events[i])
		gate.Tick()
	}
	return snd.Drain(time.Minute)
}

// isoWALAppend appends the tape's events alone.
func isoWALAppend(in *Inputs, workDir string) (stage, error) {
	dir := filepath.Join(workDir, "wal-append-only")
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval})
	if err != nil {
		return stage{}, err
	}
	defer l.Close()
	return isolate(len(in.Events), func() error {
		// One event per call, as inline Ingest captures them.
		for i := range in.Events {
			if _, err := l.AppendBatch(in.Events[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// isoWALRead loops wal.Reader.Next alone over the pre-written log.
func isoWALRead(in *Inputs) (stage, error) {
	return isolate(len(in.Events), func() error {
		rd, err := wal.OpenReader(in.WALDir)
		if err != nil {
			return err
		}
		defer rd.Close()
		n := 0
		for {
			if _, _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			n++
		}
		if n != len(in.Events) {
			return fmt.Errorf("wal read-only run returned %d of %d records", n, len(in.Events))
		}
		return nil
	})
}

// isoCore runs the analyzer alone over the tape's parsed events.
func (in *Inputs) isoCore(p *probe) error {
	s := newSUT(in.Lib, p)
	states := in.Tape.States()
	si := 0
	for i := range in.Events {
		for ; si < len(states) && states[si].After <= int(in.EventPkt[i]); si++ {
			p.applyState(s, states[si].Update)
		}
		p.ingest(s, in.Events[i])
	}
	p.closeAnalyzer(s)
	if got := len(s.a.Reports()); got == 0 {
		return errors.New("analyzer-only run produced no reports")
	}
	return nil
}

// isoDetector times Detector.Observe over the canonical series.
func isoDetector() float64 {
	series := experiments.DetectorBenchSeries(1 << 18)
	det := tsoutliers.New(tsoutliers.Options{})
	at := time.Unix(0, 0)
	st, _ := isolate(len(series), func() error {
		for _, v := range series {
			det.Observe(at, v)
			at = at.Add(time.Millisecond)
		}
		return nil
	})
	return st.ns
}

// isoWindow times Dual.Push alone at the analyzer's window size.
func isoWindow(evs []trace.Event, fpMax int) float64 {
	w := window.New(window.Alpha(fpMax, 150, 1))
	st, _ := isolate(len(evs), func() error {
		for i := range evs {
			w.Push(evs[i])
		}
		return nil
	})
	return st.ns
}

// directRate is events per second of a bare analyzer (no rca, no report
// callback) over evs, fed in batches of 256 through IngestBatch so that
// the sharded front-end gets the batches it is built for.
func (in *Inputs) directRate(evs []trace.Event, cfg core.Config) float64 {
	a := core.New(in.Lib, cfg)
	runtime.GC()
	t0 := time.Now()
	for lo := 0; lo < len(evs); lo += 256 {
		a.IngestBatch(evs[lo:min(lo+256, len(evs))])
	}
	a.Close()
	return float64(len(evs)) / time.Since(t0).Seconds()
}

// explainCost is what one stored evidence trace costs: a direct-storm
// pass with SetExplain and the explaining RCA hook, minus one without.
func (in *Inputs) explainCost() (msPerTrace, bytesPerTrace float64) {
	pass := func(explain bool) (cost, uint64) {
		a := core.New(in.Lib, core.Config{})
		store := rca.NewStore()
		engine := rca.NewEngine(in.Lib, store, rca.Config{})
		var traces *tracestore.Store
		if explain {
			traces = tracestore.New(0)
			a.SetExplain(traces)
			a.SetRCAExplain(engine.ExplainHook())
		} else {
			a.SetRCA(engine.Hook())
		}
		runtime.GC()
		var m meter
		m.begin()
		for i := range in.Storm {
			a.Ingest(in.Storm[i])
		}
		a.Close()
		c := m.end()
		if traces == nil {
			return c, 0
		}
		return c, traces.Stored()
	}
	off, _ := pass(false)
	on, stored := pass(true)
	if stored == 0 {
		return 0, 0
	}
	return float64(on.Wall-off.Wall) / 1e6 / float64(stored), (float64(on.Bytes) - float64(off.Bytes)) / float64(stored)
}

// isoExportSample times one telemetry sample of the process registry,
// which the laps before it have populated.
func isoExportSample() (usPerSample, points float64) {
	s := export.NewSampler(telemetry.Default(), "gretel-e2e")
	var buf []byte
	const n = 50
	pts := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		buf, pts = s.Sample(buf[:0], t0.Add(time.Duration(i)*time.Second))
	}
	return float64(time.Since(t0)) / 1e3 / n, float64(pts)
}
