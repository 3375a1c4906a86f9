// The first-class scenario registry: each named scenario wires the
// runner to a real pipeline through the same entry points the go-test
// benchmarks use (internal/experiments bench workloads, replay.Drive,
// core.New), so harness results and `go test -bench` results measure
// the same code on the same inputs.

package benchrunner

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gretel/internal/agent"
	"gretel/internal/chaos"
	"gretel/internal/cluster"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/federation"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/scenario"
	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
	"gretel/internal/wal"
	"gretel/internal/window"
)

func init() {
	Register("ingest", func() Scenario {
		return &ingestScenario{desc: "analyzer ingest (pairing, latency tracking, window push) on the canonical fault-free stream (replay.Drive)"}
	})
	Register("fig8c-parallel", func() Scenario {
		return &parallelScenario{desc: "detect worker pool 1/2/4/8 vs inline on the canonical Fig 8c faulty stream"}
	})
	Register("explain-overhead", func() Scenario {
		return &explainScenario{desc: "evidence-trace recording on vs off on the canonical faulty stream (tracestore delta)"}
	})
	Register("chaos-soak", func() Scenario {
		return &chaosScenario{desc: "delivered/s through the fault-injecting chaos dialer, sender → TCP → receiver → analyzer"}
	})
	Register("table1-learning", func() Scenario {
		return &table1Scenario{desc: "full offline characterization: 1200 isolated executions, noise filtering, LCS learning"}
	})
	Register("detector", func() Scenario {
		return &detectorScenario{desc: "steady-state level-shift detector Observe cost (sorted deviation window: linear in W, tiny constant) at W = 60 — the only window the product uses — and 4x / 16x that"}
	})
	Register("wal-append", func() Scenario {
		return &walScenario{desc: "write-ahead log append cost on the canonical fault-free stream, fsync none vs interval"}
	})
	Register("export-overhead", func() Scenario {
		return &exportScenario{desc: "telemetry export (registry sampling + line-protocol shipping to a live receiver) on vs off on the canonical fault-free stream"}
	})
	Register("cluster-soak", func() Scenario {
		return &clusterScenario{desc: "federated fleet soak: two analyzers, rendezvous-partitioned deployments, mid-burst member kill, spool-replay failover, merged-report ledger"}
	})
	Register("opdetect", func() Scenario {
		return &opdetectScenario{desc: "Algorithm 2 alone: operation detection over the frozen snapshots of the canonical Fig 8c faulty stream (compiled match programs, dense posting index)"}
	})
	Register("monitor", func() Scenario {
		return &monitorScenario{desc: "the tap alone: agent.Monitor.HandlePacket over the canonical tapped wire (in-place REST and AMQP scanners), sink discarding"}
	})
	Register("rca", func() Scenario {
		return &rcaScenario{desc: "Algorithm 3 alone: Engine.Analyze over a Store fed 1 s polls of 10 nodes with a full 120 s lookback, at 1/10/100 reports per poll, plus ExplainHook at 10"}
	})
}

// driveExtras folds a replay result into the standard extra metrics.
func driveExtras(res replay.Result) Metrics {
	return Metrics{
		EventsPerOp: float64(res.Events),
		"events/s":  res.EventsPerSec,
		"Mbps":      res.Mbps,
		"reports":   float64(res.Reports),
	}
}

// --- ingest: the analyzer alone on a fault-free stream ---

type ingestScenario struct {
	desc   string
	lib    *fingerprint.Library
	stream []trace.Event
}

func (s *ingestScenario) Name() string        { return "ingest" }
func (s *ingestScenario) Description() string { return s.desc }
func (s *ingestScenario) Teardown() error     { s.lib, s.stream = nil, nil; return nil }

func (s *ingestScenario) Setup(opts Options) error {
	events := 50000
	if opts.Short {
		events = 20000
	}
	s.lib = experiments.BenchLibrary()
	s.stream = experiments.CleanBenchStream(events)
	return nil
}

func (s *ingestScenario) Cases() []Case {
	return []Case{{Name: "inline", Run: func() (Metrics, error) {
		a := core.New(s.lib, core.Config{})
		return driveExtras(replay.Drive(a, s.stream)), nil
	}}}
}

// --- fig8c-parallel: detect workers 1/2/4/8 ---

type parallelScenario struct {
	desc   string
	lib    *fingerprint.Library
	stream []trace.Event
}

func (s *parallelScenario) Name() string        { return "fig8c-parallel" }
func (s *parallelScenario) Description() string { return s.desc }
func (s *parallelScenario) Teardown() error     { s.lib, s.stream = nil, nil; return nil }

func (s *parallelScenario) Setup(opts Options) error {
	events := 100000
	if opts.Short {
		events = 30000
	}
	s.lib = experiments.BenchLibrary()
	s.stream = experiments.FaultyBenchStream(events)
	return nil
}

func (s *parallelScenario) Cases() []Case {
	mk := func(name string, workers int) Case {
		return Case{Name: name, Run: func() (Metrics, error) {
			a := core.New(s.lib, core.Config{DetectWorkers: workers})
			res := replay.Drive(a, s.stream)
			if res.Reports == 0 {
				return nil, fmt.Errorf("faulty stream produced no reports")
			}
			return driveExtras(res), nil
		}}
	}
	cases := []Case{mk("inline", 0)}
	for _, w := range []int{1, 2, 4, 8} {
		cases = append(cases, mk(fmt.Sprintf("workers=%d", w), w))
	}
	return cases
}

// --- explain-overhead: evidence tracing on vs off ---

type explainScenario struct {
	desc   string
	lib    *fingerprint.Library
	stream []trace.Event
}

func (s *explainScenario) Name() string        { return "explain-overhead" }
func (s *explainScenario) Description() string { return s.desc }
func (s *explainScenario) Teardown() error     { s.lib, s.stream = nil, nil; return nil }

func (s *explainScenario) Setup(opts Options) error {
	events := 50000
	if opts.Short {
		events = 20000
	}
	s.lib = experiments.BenchLibrary()
	// Faulty stream: traces are only recorded when reports fire, so an
	// all-healthy run would measure the (nil-check) disabled path twice.
	s.stream = experiments.FaultyBenchStream(events)
	return nil
}

func (s *explainScenario) Cases() []Case {
	return []Case{
		{Name: "off", Run: func() (Metrics, error) {
			a := core.New(s.lib, core.Config{})
			a.SetExplain(nil)
			return driveExtras(replay.Drive(a, s.stream)), nil
		}},
		{Name: "on", Run: func() (Metrics, error) {
			a := core.New(s.lib, core.Config{})
			a.SetExplain(tracestore.New(0))
			res := replay.Drive(a, s.stream)
			if res.TracesStored == 0 {
				return nil, fmt.Errorf("explain mode stored no traces")
			}
			extra := driveExtras(res)
			extra["traces_stored"] = float64(res.TracesStored)
			return extra, nil
		}},
	}
}

// --- chaos-soak: delivered/s through the chaos dialer ---

type chaosScenario struct {
	desc   string
	events []trace.Event
	lib    *fingerprint.Library
}

func (s *chaosScenario) Name() string        { return "chaos-soak" }
func (s *chaosScenario) Description() string { return s.desc }
func (s *chaosScenario) Teardown() error     { s.events, s.lib = nil, nil; return nil }

func (s *chaosScenario) Setup(opts Options) error {
	n := 6000
	if opts.Short {
		n = 2500
	}
	// The chaos soak test's stream shape (internal/chaos/soak_test.go),
	// scaled for benchmarking.
	s.events = replay.Synthesize(replay.StreamConfig{
		Events: n, Concurrency: 40, FaultEvery: 400, Seed: 11,
	})
	s.lib = scenario.CoreLibrary()
	return nil
}

func (s *chaosScenario) Cases() []Case {
	return []Case{{Name: "soak", Run: s.runSoak}}
}

// runSoak pushes the stream through sender → chaos conn → receiver →
// analyzer once and reports delivered/s plus the loss accounting. The
// zero-silent-loss invariant (delivered + missing == sent) is asserted:
// a bench run that loses events silently measures garbage.
func (s *chaosScenario) runSoak() (Metrics, error) {
	recv, err := agent.ListenConfig(agent.ReceiverConfig{
		Addr: "127.0.0.1:0", ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr: recv.Addr(), Agent: "bench-agent",
		Ring:       1 << 15, // retain the whole stream: resets replay, nothing sheds
		Heartbeat:  5 * time.Millisecond,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		WriteTimeout: 2 * time.Second, DrainTimeout: 30 * time.Second,
		Dialer: chaos.Dialer(chaos.Config{
			Seed: 1971,
			Drop: 0.02, Corrupt: 0.02, Split: 0.1,
			Delay: 0.05, DelayBy: 100 * time.Microsecond,
			Stall: 0.002, StallFor: 10 * time.Millisecond,
			Reset: 0.005,
		}),
	})
	if err != nil {
		recv.Close()
		return nil, err
	}

	a := core.New(s.lib, core.Config{Alpha: 256})
	var sendErr error
	var final agent.AgentStat
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range s.events {
			snd.Send(s.events[i])
			if i%16 == 15 {
				// Brief throttle so the writer flushes many small chunks,
				// giving per-write fault injection frame boundaries to hit.
				time.Sleep(50 * time.Microsecond)
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			final = recv.AgentStats()["bench-agent"]
			if final.LastSeq >= uint64(len(s.events)) {
				break
			}
			if time.Now().After(deadline) {
				sendErr = fmt.Errorf("receiver high-water stuck at %d/%d", final.LastSeq, len(s.events))
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		snd.Close()
		recv.Close()
	}()
	res := replay.DriveTransport(a, recv, nil)
	<-done
	if sendErr != nil {
		return nil, sendErr
	}

	delivered := a.Stats.Events
	if delivered+final.Missing != uint64(len(s.events)) {
		return nil, fmt.Errorf("silent loss: %d delivered + %d missing != %d sent",
			delivered, final.Missing, len(s.events))
	}
	return Metrics{
		EventsPerOp:   float64(delivered),
		"delivered/s": res.EventsPerSec,
		"delivered":   float64(delivered),
		"missing":     float64(final.Missing),
		"dups":        float64(final.Dups),
		"gaps":        float64(res.Gaps),
	}, nil
}

// --- detector: level-shift detector Observe microbench ---

type detectorScenario struct {
	desc   string
	series []float64
}

func (s *detectorScenario) Name() string        { return "detector" }
func (s *detectorScenario) Description() string { return s.desc }
func (s *detectorScenario) Teardown() error     { s.series = nil; return nil }

func (s *detectorScenario) Setup(opts Options) error {
	n := 1_000_000
	if opts.Short {
		n = 250_000
	}
	s.series = experiments.DetectorBenchSeries(n)
	return nil
}

// Cases sweep the inlier window bound. Per-event work is a binary search
// plus a memmove of at most W floats — linear in W with a tiny constant.
// 60 is the only window the product uses (no caller sets Options.Window);
// 240 and 960 are there so the committed numbers show how slowly the cost
// climbs, and would catch a change that made it climb fast.
func (s *detectorScenario) Cases() []Case {
	mk := func(window int) Case {
		return Case{Name: fmt.Sprintf("window=%d", window), Run: func() (Metrics, error) {
			d := tsoutliers.New(tsoutliers.Options{Window: window, MinSpread: 0.5, MaxAlarms: 4096})
			t0 := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
			for i, v := range s.series {
				d.Observe(t0.Add(time.Duration(i)*time.Millisecond), v)
			}
			if d.AlarmCount(0) == 0 || len(d.Shifts()) == 0 {
				return nil, fmt.Errorf("detector series raised no alarms/shifts (alarms=%d, shifts=%d)",
					d.AlarmCount(0), len(d.Shifts()))
			}
			return Metrics{
				EventsPerOp: float64(len(s.series)),
				"alarms":    float64(d.AlarmCount(0)),
				"shifts":    float64(len(d.Shifts())),
			}, nil
		}}
	}
	return []Case{mk(60), mk(240), mk(960)}
}

// --- wal-append: durable capture cost per event ---

type walScenario struct {
	desc   string
	stream []trace.Event
}

func (s *walScenario) Name() string        { return "wal-append" }
func (s *walScenario) Description() string { return s.desc }
func (s *walScenario) Teardown() error     { s.stream = nil; return nil }

func (s *walScenario) Setup(opts Options) error {
	events := 50000
	if opts.Short {
		events = 20000
	}
	s.stream = experiments.CleanBenchStream(events)
	return nil
}

// Cases measure the two fsync policies a deployment actually chooses
// between: none (flush to the OS per batch, fsync only on rotation)
// and interval (a bounded loss window). "every" is deliberately not
// benchmarked — one fsync per append is disk-bound, not a pipeline
// cost, and would swamp the gate tolerance with device noise. Each run
// appends the canonical stream in ingest-sized batches through a
// fresh log in a throwaway directory.
func (s *walScenario) Cases() []Case {
	mk := func(name string, policy wal.Fsync) Case {
		return Case{Name: name, Run: func() (Metrics, error) {
			dir, err := os.MkdirTemp("", "gretel-bench-wal-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: policy})
			if err != nil {
				return nil, err
			}
			const batch = 256
			for i := 0; i < len(s.stream); i += batch {
				end := i + batch
				if end > len(s.stream) {
					end = len(s.stream)
				}
				if _, err := l.AppendBatch(s.stream[i:end]); err != nil {
					l.Close()
					return nil, err
				}
			}
			st := l.Stats()
			if err := l.Close(); err != nil {
				return nil, err
			}
			if st.Appended != uint64(len(s.stream)) {
				return nil, fmt.Errorf("appended %d of %d events", st.Appended, len(s.stream))
			}
			return Metrics{
				EventsPerOp: float64(len(s.stream)),
				"B/event":   float64(st.Bytes) / float64(len(s.stream)),
				"segments":  float64(st.Segments),
				"syncs":     float64(st.Synced),
			}, nil
		}}
	}
	return []Case{mk("fsync=none", wal.FsyncNone), mk("fsync=interval", wal.FsyncInterval)}
}

// --- export-overhead: telemetry sampling + shipping on vs off ---

type exportScenario struct {
	desc   string
	lib    *fingerprint.Library
	stream []trace.Event
	srv    *http.Server
	url    string
}

func (s *exportScenario) Name() string        { return "export-overhead" }
func (s *exportScenario) Description() string { return s.desc }

func (s *exportScenario) Setup(opts Options) error {
	events := 50000
	if opts.Short {
		events = 20000
	}
	s.lib = experiments.BenchLibrary()
	s.stream = experiments.CleanBenchStream(events)
	// A healthy local receiver: accept every /write POST with 204, so
	// the "on" case measures sampling + encoding + delivery, not retry.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})}
	go s.srv.Serve(ln)
	s.url = "http://" + ln.Addr().String() + "/write"
	return nil
}

func (s *exportScenario) Teardown() error {
	err := s.srv.Close()
	s.lib, s.stream, s.srv = nil, nil, nil
	return err
}

// Cases compare the canonical ingest workload bare against the same
// workload with the export pipeline live. Sampling is driven at a fixed
// event cadence (32 samples per op) rather than the production
// wall-clock tick, so the per-op export work — registry walks, delta
// computation, line-protocol encoding, HTTP delivery — is deterministic
// and the allocation gate stays meaningful across machine speeds.
func (s *exportScenario) Cases() []Case {
	return []Case{
		{Name: "off", Run: func() (Metrics, error) { return s.run(0) }},
		{Name: "on", Run: func() (Metrics, error) { return s.run(len(s.stream) / 32) }},
	}
}

func (s *exportScenario) run(sampleEvery int) (Metrics, error) {
	var smp *export.Sampler
	var ship *export.Shipper
	if sampleEvery > 0 {
		smp = export.NewSampler(telemetry.Default(), "gretel-bench")
		ship = export.NewShipper(export.ShipperConfig{URL: s.url, MaxPoints: 1 << 16})
	}
	a := core.New(s.lib, core.Config{})
	start := time.Now()
	samples := 0
	for i := range s.stream {
		a.Ingest(s.stream[i])
		if sampleEvery > 0 && (i+1)%sampleEvery == 0 {
			// Pre-size the batch (the shipper takes ownership, so it cannot
			// be reused): append-doubling growth sits on a power-of-two
			// knife edge where a one-byte-longer tag value (e.g. a -dirty
			// rev suffix) shifts bytes/op past the gate tolerance.
			buf, n := smp.Sample(make([]byte, 0, 128<<10), time.Now())
			ship.Enqueue(buf, n)
			samples++
		}
	}
	a.Close()
	wall := time.Since(start)
	m := Metrics{
		EventsPerOp: float64(len(s.stream)),
		"events/s":  float64(len(s.stream)) / wall.Seconds(),
	}
	if sampleEvery == 0 {
		return m, nil
	}
	drained := ship.Drain(30 * time.Second)
	ship.Close()
	st := ship.Stats()
	if !drained {
		return nil, fmt.Errorf("shipper failed to drain against a healthy receiver (buffered %d)", st.Buffered)
	}
	// The same zero-silent-loss discipline the chaos soak asserts: a
	// bench that loses points quietly measures garbage.
	if st.Delivered+st.Shed != st.Enqueued {
		return nil, fmt.Errorf("export ledger unbalanced: %d delivered + %d shed != %d enqueued",
			st.Delivered, st.Shed, st.Enqueued)
	}
	if st.Shed != 0 || st.Delivered == 0 {
		return nil, fmt.Errorf("healthy receiver: want 0 shed and >0 delivered, got shed=%d delivered=%d",
			st.Shed, st.Delivered)
	}
	m["samples"] = float64(samples)
	m["points"] = float64(st.Delivered)
	return m, nil
}

// --- table1-learning: the full offline characterization pass ---

type table1Scenario struct {
	desc string
	runs int
}

func (s *table1Scenario) Name() string        { return "table1-learning" }
func (s *table1Scenario) Description() string { return s.desc }
func (s *table1Scenario) Teardown() error     { return nil }

func (s *table1Scenario) Setup(opts Options) error {
	s.runs = 2
	if opts.Short {
		s.runs = 1
	}
	return nil
}

func (s *table1Scenario) Cases() []Case {
	return []Case{{
		Name: fmt.Sprintf("runs=%d", s.runs),
		Run: func() (Metrics, error) {
			res := experiments.Table1(1, s.runs)
			if res.FPMax != 384 {
				return nil, fmt.Errorf("FPmax = %d, want the paper's 384", res.FPMax)
			}
			return Metrics{"fpmax": float64(res.FPMax)}, nil
		},
	}}
}

// --- cluster-soak: federated failover + merged-report ledger ---

type clusterScenario struct {
	desc    string
	streams [][]trace.Event
	lib     *fingerprint.Library
}

func (s *clusterScenario) Name() string        { return "cluster-soak" }
func (s *clusterScenario) Description() string { return s.desc }
func (s *clusterScenario) Teardown() error     { s.streams, s.lib = nil, nil; return nil }

func (s *clusterScenario) Setup(opts Options) error {
	n := 6000
	if opts.Short {
		n = 2500
	}
	// One event stream per monitored deployment: a deployment's pairing
	// spans its nodes, so each stream is one federation partition key.
	s.streams = nil
	for i := 0; i < 2; i++ {
		s.streams = append(s.streams, replay.Synthesize(replay.StreamConfig{
			Events: n, Concurrency: 40, FaultEvery: 400, Seed: int64(21 + i),
		}))
	}
	s.lib = scenario.CoreLibrary()
	return nil
}

func (s *clusterScenario) Cases() []Case {
	return []Case{
		{Name: "steady", Run: func() (Metrics, error) { return s.runFleet(false) }},
		{Name: "failover", Run: func() (Metrics, error) { return s.runFleet(true) }},
	}
}

// fedMember is one in-process analyzer member: receiver, analyzer,
// report log, and the transport-drive goroutine.
type fedMember struct {
	name string
	addr string
	recv *agent.Receiver
	core *core.Analyzer
	log  *federation.ReportLog
	done chan struct{}
}

// runFleet stands up a two-member analyzer fleet, streams each
// deployment to its rendezvous-assigned member, optionally kills the
// first deployment's owner mid-burst (the spool ring replays the whole
// stream into the survivor on the next resolve), and closes the run
// with two ledgers: per-stream zero silent loss at the final owner, and
// produced == merged with zero dups across the member report logs.
func (s *clusterScenario) runFleet(kill bool) (Metrics, error) {
	names := []string{"alpha", "beta"}
	members := map[string]*fedMember{}
	for _, name := range names {
		recv, err := agent.ListenConfig(agent.ReceiverConfig{
			Addr: "127.0.0.1:0", ReadTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			for _, m := range members {
				m.recv.Close()
			}
			return nil, err
		}
		m := &fedMember{
			name: name, addr: recv.Addr(), recv: recv,
			core: core.New(s.lib, core.Config{Alpha: 256, Member: name}),
			log:  federation.NewReportLog(0),
			done: make(chan struct{}),
		}
		m.core.OnReport(m.log.Record)
		members[name] = m
		go func(m *fedMember) {
			replay.DriveTransport(m.core, m.recv, nil)
			close(m.done)
		}(m)
	}

	// The coordinator's control plane in miniature: rendezvous assignment
	// over the alive set, consulted by every sender redial.
	var mu sync.Mutex
	alive := append([]string(nil), names...)
	resolve := func(key string) func() (string, error) {
		return func() (string, error) {
			mu.Lock()
			defer mu.Unlock()
			owner := federation.Assign(key, alive)
			if owner == "" {
				return "", fmt.Errorf("no alive members")
			}
			return members[owner].addr, nil
		}
	}
	currentOwner := func(key string) *fedMember {
		mu.Lock()
		defer mu.Unlock()
		return members[federation.Assign(key, alive)]
	}

	victim := federation.Assign("dep-1", names)
	// The kill is volume-deterministic so the committed bench numbers
	// are stable: every sender pauses at half stream, the controller
	// waits until the victim has admitted each paused first half, kills
	// it, and resumes — the survivor then replays exactly the retained
	// halves plus the back halves instead of a scheduling-dependent cut.
	halfDone := make(chan string, len(s.streams))
	resume := make(chan struct{})

	start := time.Now()
	errs := make(chan error, 2*len(s.streams))
	var wg sync.WaitGroup
	for i := range s.streams {
		key, stream := fmt.Sprintf("dep-%d", i+1), s.streams[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, err := agent.DialConfig(agent.SenderConfig{
				Resolve: resolve(key), Agent: key,
				Ring:       1 << 15, // retain the whole stream: failover replays everything
				Heartbeat:  5 * time.Millisecond,
				BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
				WriteTimeout: 2 * time.Second, DrainTimeout: 30 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			defer snd.Close()
			for j := range stream {
				snd.Send(stream[j])
				if kill && j == len(stream)/2 {
					halfDone <- key
					<-resume
				}
				if j%16 == 15 {
					// Let the writer flush so frames actually reach the
					// owner instead of piling up in the spool.
					time.Sleep(50 * time.Microsecond)
				}
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				st := currentOwner(key).recv.AgentStats()[key]
				if st.LastSeq >= uint64(len(stream)) {
					if st.Missing != 0 || st.Dups != 0 {
						errs <- fmt.Errorf("%s: silent loss at final owner: missing=%d dups=%d", key, st.Missing, st.Dups)
					}
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("%s: owner high-water stuck at %d/%d", key, st.LastSeq, len(stream))
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	if kill {
		paused := map[string]int{}
		for range s.streams {
			key := <-halfDone
			for i := range s.streams {
				if key == fmt.Sprintf("dep-%d", i+1) {
					paused[key] = len(s.streams[i])/2 + 1
				}
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for key, sent := range paused {
			if currentOwner(key).name != victim {
				continue
			}
			for currentOwner(key).recv.AgentStats()[key].LastSeq < uint64(sent) {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("%s: victim never admitted the first half", key)
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		mu.Lock()
		keep := alive[:0]
		for _, n := range alive {
			if n != victim {
				keep = append(keep, n)
			}
		}
		alive = keep
		mu.Unlock()
		members[victim].recv.Close()
		close(resume)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, name := range names {
		members[name].recv.Close() // idempotent for the killed victim
		<-members[name].done
	}
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	// Merge the member logs exactly as the coordinator does and close
	// the report ledger: every produced report merges, none twice.
	produced, merged := 0, 0
	mrg := federation.NewMerger(federation.MergerConfig{
		Window: time.Second, Emit: func(federation.Envelope) { merged++ },
	})
	for _, name := range names {
		page := members[name].log.Page(0)
		produced += len(page.Reports)
		for _, e := range page.Reports {
			mrg.Add(federation.Envelope{Member: name, Epoch: 1, Seq: e.Seq, At: e.At, Report: e.Report})
		}
	}
	mrg.Flush()
	if st := mrg.Stats(); st.Dups != 0 || int(st.Merged) != merged || merged != produced {
		return nil, fmt.Errorf("merge ledger broken: produced %d, merged %d, stats %+v", produced, merged, st)
	}

	totalSent := 0
	for _, stream := range s.streams {
		totalSent += len(stream)
	}
	var delivered uint64
	for _, m := range members {
		delivered += m.core.Stats.Events
	}
	metrics := Metrics{
		EventsPerOp:   float64(totalSent),
		"delivered/s": float64(delivered) / elapsed.Seconds(),
		"delivered":   float64(delivered),
		"reports":     float64(produced),
		"merged":      float64(merged),
	}
	if kill {
		// The survivor re-analyzes the victim's replayed prefix; the
		// overlap is the failover's at-least-once cost, surfaced here.
		metrics["replayed"] = float64(delivered) - float64(totalSent)
	}
	return metrics, nil
}

// --- opdetect: Algorithm 2 alone over frozen snapshots ---

type opdetectScenario struct {
	desc   string
	a      *core.Analyzer
	faults []trace.Event
	snaps  []*window.Snapshot
}

func (s *opdetectScenario) Name() string        { return "opdetect" }
func (s *opdetectScenario) Description() string { return s.desc }
func (s *opdetectScenario) Teardown() error     { s.a, s.faults, s.snaps = nil, nil, nil; return nil }

// Setup freezes one fault-centered snapshot per REST error of the stream
// — the analyzer's own arming rule, through the same dual-buffer window —
// so the cases time detection and nothing else. The snapshots are never
// released: every iteration re-detects the same frozen windows.
func (s *opdetectScenario) Setup(opts Options) error {
	events := 500000
	if opts.Short {
		events = 200000
	}
	s.a = core.New(experiments.BenchLibrary(), core.Config{})
	win := window.New(s.a.Config().Alpha)
	for _, ev := range experiments.FaultyBenchStream(events) {
		win.Push(ev)
		if ev.Faulty() && ev.Type == trace.RESTResponse {
			fault := ev
			win.Arm(func(snap *window.Snapshot) {
				s.faults = append(s.faults, fault)
				s.snaps = append(s.snaps, snap)
			})
		}
	}
	win.Flush()
	if len(s.snaps) == 0 {
		return fmt.Errorf("faulty stream froze no snapshots")
	}
	return nil
}

func (s *opdetectScenario) Cases() []Case {
	return []Case{{Name: "inline", Run: func() (Metrics, error) {
		matched := 0
		for i, snap := range s.snaps {
			matched += len(s.a.Detect(s.faults[i], core.Operational, 0, snap).Candidates)
		}
		if matched == 0 {
			return nil, fmt.Errorf("no snapshot matched any operation")
		}
		return Metrics{ReportsPerOp: float64(len(s.snaps)), "matched": float64(matched)}, nil
	}}}
}

// --- rca: Algorithm 3 alone over a Store in its production shape ---

type rcaScenario struct {
	desc   string
	store  *rca.Store
	update agent.StateUpdate // an idle deployment's state, re-stamped per poll
	polls  int               // per iteration
	polled int               // so far: the store's clock, in seconds
}

func (s *rcaScenario) Name() string        { return "rca" }
func (s *rcaScenario) Description() string { return s.desc }
func (s *rcaScenario) Teardown() error     { s.store, s.update = nil, agent.StateUpdate{}; return nil }

// Setup fills the store with a full lookback of polls, so that from the
// first report on every window slides at both ends — the shape the
// 6-sim-second end-to-end streams never reach.
func (s *rcaScenario) Setup(opts Options) error {
	s.polls = 300
	if opts.Short {
		s.polls = 100
	}
	s.store = rca.NewStore()
	s.update = agent.CollectState(openstack.NewDeployment(openstack.Config{Seed: 16, ComputeNodes: 1}).Fabric, time.Time{})
	for s.polled = 0; s.polled < 120; {
		s.poll()
	}
	return nil
}

// poll applies one collectd interval, 1 s after the last: the same ten
// nodes, every sample moved by a bounded ±1.
func (s *rcaScenario) poll() time.Time {
	s.polled++
	at := time.Date(2016, 12, 12, 0, 0, s.polled, 0, time.UTC)
	for i := range s.update.Samples {
		m := &s.update.Samples[i]
		m.Time, m.Value = at, m.Value+float64((s.polled+i)%3-1)
	}
	s.store.Apply(s.update)
	return at
}

// Cases spread each poll's reports over its second, so a burst sees the
// window's newest sample arrive once and its oldest leave once.
func (s *rcaScenario) Cases() []Case {
	judged, reused := telemetry.GetCounter("rca.windows.judged"), telemetry.GetCounter("rca.windows.reused")
	lib := scenario.CoreLibrary()
	mk := func(name string, perPoll int, explain bool) Case {
		return Case{Name: name, Run: func() (Metrics, error) {
			e := rca.NewEngine(lib, s.store, rca.Config{})
			hook := e.Hook()
			if ex := e.ExplainHook(); explain {
				hook = func(rep *core.Report) []core.RootCause { c, _ := ex(rep); return c }
			}
			j0, r0 := judged.Value(), reused.Value()
			rep := &core.Report{Kind: core.Operational, Candidates: []string{"vm-create"},
				Errors: []trace.Event{{SrcNode: "horizon-node", DstNode: "nova-node"}}}
			for p := 0; p < s.polls; p++ {
				at := s.poll()
				for r := 0; r < perPoll; r++ {
					rep.Fault.Time = at.Add(time.Duration(r) * time.Second / time.Duration(perPoll))
					hook(rep)
				}
			}
			j, r := float64(judged.Value()-j0), float64(reused.Value()-r0)
			if j == 0 {
				return nil, fmt.Errorf("no node's windows were judged")
			}
			return Metrics{ReportsPerOp: float64(s.polls * perPoll), "windows_reused_share": r / (j + r)}, nil
		}}
	}
	return []Case{mk("reports-per-poll=1", 1, false), mk("reports-per-poll=10", 10, false),
		mk("reports-per-poll=100", 100, false), mk("explain/reports-per-poll=10", 10, true)}
}

// --- monitor: the tap alone over the canonical wire ---

type monitorScenario struct {
	desc    string
	packets []cluster.Packet
}

func (s *monitorScenario) Name() string        { return "monitor" }
func (s *monitorScenario) Description() string { return s.desc }
func (s *monitorScenario) Teardown() error     { s.packets = nil; return nil }

func (s *monitorScenario) Setup(opts Options) error {
	simSeconds := 60
	if opts.Short {
		simSeconds = 20
	}
	s.packets = experiments.BenchPackets(simSeconds)
	return nil
}

func (s *monitorScenario) Cases() []Case {
	return []Case{{Name: "tap", Run: func() (Metrics, error) {
		events, faulty := 0, 0
		mon := agent.NewMonitor("bench", func(ev trace.Event) {
			events++
			if ev.Faulty() {
				faulty++
			}
		}, nil)
		for _, pkt := range s.packets {
			mon.HandlePacket(pkt)
		}
		if events == 0 || faulty == 0 || mon.Ignored == 0 || mon.ParseErrors != 0 {
			return nil, fmt.Errorf("tap saw %d events (%d faulty), ignored %d packets, %d parse errors", events, faulty, mon.Ignored, mon.ParseErrors)
		}
		return Metrics{EventsPerOp: float64(events), "packets": float64(len(s.packets)), "faulty": float64(faulty)}, nil
	}}}
}
