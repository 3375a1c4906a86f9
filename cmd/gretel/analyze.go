package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/federation"
	"gretel/internal/fingerprint"
	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/telemetry"
	"gretel/internal/tempest"
	"gretel/internal/tracestore"
	"gretel/internal/wal"
)

// runAnalyze is the analyzer service. Detection runs on a worker pool
// behind a bounded queue that blocks the receiver when full, or sheds
// snapshots with -detect-shed; reports come out in fault-arrival order
// either way.
func runAnalyze(args []string) error {
	p := newProc("analyze")
	fs := p.fs
	var (
		listen     = fs.String("listen", ":6166", "address to receive agent event streams on")
		libPath    = fs.String("library", "", "fingerprint library JSON (from gretel fingerprint)")
		seed       = fs.Int64("seed", 1, "catalog seed used when -library is not given")
		alpha      = fs.Int("alpha", 0, "sliding window size (0 = derive from FPmax/Prate/t)")
		prate      = fs.Float64("prate", 150, "expected message rate (packets/s) for window sizing")
		horizonT   = fs.Float64("t", 1, "window time horizon t in seconds")
		perf       = fs.Bool("perf", true, "enable performance-fault detection")
		quiet      = fs.Bool("quiet", false, "suppress per-report output; print only the summary")
		jsonOut    = fs.Bool("json", false, "emit reports as JSON lines instead of text")
		telAddr    = fs.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :6167; empty disables)")
		workers    = fs.Int("detect-workers", runtime.GOMAXPROCS(0), "detection worker pool size (0 = detect inline on the receive path)")
		backlog    = fs.Int("detect-backlog", 0, "bounded detect queue capacity (0 = 4x workers)")
		shed       = fs.Bool("detect-shed", false, "shed snapshots when the detect queue is full instead of applying backpressure")
		downAfter  = fs.Duration("down-after", 5*time.Second, "declare an agent down after this long without frames or heartbeats (0 disables liveness tracking)")
		explain    = fs.Bool("explain", false, "record a full evidence trace per report, browsable at /traces on the telemetry address")
		traceCap   = fs.Int("trace-store-cap", tracestore.DefaultCap, "max evidence traces held in memory (oldest evicted first, evictions counted)")
		replayN    = fs.Int("replay", 0, "self-test mode: synthesize this many catalog-workload events and drive them instead of listening for agents")
		faultEvery = fs.Int("fault-every", 1000, "with -replay, inject one fault per this many messages")
		replayPace = fs.Duration("replay-pace", 0, "with -replay, sleep this long per 1000 events (crash smokes use it to land a kill mid-burst)")
		linger     = fs.Duration("linger", 0, "with -replay, keep telemetry endpoints serving this long after the run")
		walDir     = fs.String("wal", "", "write-ahead log directory: capture every ingested event durably and replay the unprocessed suffix on restart (empty disables)")
		walFsync   = fs.String("wal-fsync", "interval", "WAL fsync policy: none (OS flush only), interval (bounded loss window), every (fsync per append)")
		walRetain  = fs.Int64("wal-retain", 1<<30, "WAL retention budget in bytes; closed segments beyond it are dropped oldest-first (negative retains everything)")
		memberName = fs.String("member", "", "federation member name: stamp reports with this id when running under a gretel coord fleet (empty = standalone)")
	)
	// Negative sizes would silently flip internal sentinels ("use the
	// default", "cap disabled") a CLI user has no reason to request.
	var fsyncPolicy wal.Fsync
	err := p.parse(args, func() error {
		switch {
		case *alpha < 0:
			return fmt.Errorf("-alpha must be >= 0, got %d (0 derives it from FPmax, -prate and -t)", *alpha)
		case *prate < 0:
			return fmt.Errorf("-prate must be >= 0, got %g (0 means the default rate)", *prate)
		case *horizonT < 0:
			return fmt.Errorf("-t must be >= 0, got %g (0 means the default horizon)", *horizonT)
		case *faultEvery < 0:
			return fmt.Errorf("-fault-every must be >= 0, got %d (0 injects no faults)", *faultEvery)
		case *backlog < 0:
			return fmt.Errorf("-detect-backlog must be >= 0, got %d (0 means 4x workers)", *backlog)
		case *traceCap < 0:
			return fmt.Errorf("-trace-store-cap must be >= 0, got %d (0 means the default cap)", *traceCap)
		}
		var err error
		if fsyncPolicy, err = wal.ParseFsync(*walFsync); err != nil {
			return fmt.Errorf("-wal-fsync: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	var traces *tracestore.Store
	if *explain {
		traces = tracestore.New(*traceCap)
	}

	// Federation surface, served whenever telemetry is up: the report
	// history a coordinator pulls and per-agent stream accounting, so a
	// member is just an analyzer with -telemetry (-member only stamps).
	var reportLog *federation.ReportLog
	// recvPtr publishes the receiver to the /agents handler; the
	// telemetry server starts before the receiver exists.
	var recvPtr atomic.Pointer[agent.Receiver]
	var mounts []telemetry.Mount
	if *telAddr != "" {
		reportLog = federation.NewReportLog()
		if traces != nil {
			h := traces.Handler()
			mounts = append(mounts,
				telemetry.Mount{Pattern: "/traces", Handler: h},
				telemetry.Mount{Pattern: "/traces/", Handler: h})
		}
		mounts = append(mounts,
			telemetry.Mount{Pattern: "/reports", Handler: reportLog.Handler()},
			telemetry.Mount{Pattern: "/agents", Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				recv := recvPtr.Load()
				if recv == nil {
					http.Error(w, "no agent receiver (replay mode or still starting)", http.StatusServiceUnavailable)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(recv.AgentStats())
			})})
	}
	if err := p.start(*telAddr, mounts...); err != nil {
		return err
	}
	defer p.stop()

	var lib *fingerprint.Library
	if *libPath != "" {
		if lib, err = fingerprint.LoadFile(*libPath); err != nil {
			return fmt.Errorf("loading library: %w", err)
		}
		log.Printf("loaded %d fingerprints from %s (FPmax=%d)", lib.Len(), *libPath, lib.MaxLen())
	} else {
		lib = experiments.GroundTruthLibrary(tempest.NewCatalog(*seed))
		log.Printf("built %d fingerprints from catalog seed %d (FPmax=%d)", lib.Len(), *seed, lib.MaxLen())
	}

	analyzer := core.New(lib, core.Config{
		Alpha: *alpha, Prate: *prate, T: *horizonT, PerfDetection: *perf,
		DetectWorkers: *workers, DetectBacklog: *backlog, DetectShed: *shed,
		Member: *memberName,
	})
	// Root-cause analysis over the distributed state the agents stream in.
	store := rca.NewStore()
	engine := rca.NewEngine(lib, store, rca.Config{})
	if traces != nil {
		// Explain mode: evidence traces per report, and the RCA hook that
		// also surfaces the metric windows and watcher statuses it judged.
		analyzer.SetExplain(traces)
		analyzer.SetRCAExplain(engine.ExplainHook())
	} else {
		analyzer.SetRCA(engine.Hook())
	}
	// bootQuiet suppresses report emission while boot-time WAL replay
	// walks history the previous process already reported (at or below
	// the durable cursor). Report emission across a crash boundary is
	// at-least-once — the WAL itself is exactly-once.
	var bootQuiet atomic.Bool
	enc := json.NewEncoder(os.Stdout)
	analyzer.OnReport(func(rep *core.Report) {
		if bootQuiet.Load() {
			return
		}
		switch {
		case *quiet:
		case *jsonOut:
			if err := enc.Encode(rep); err != nil {
				log.Printf("encoding report: %v", err)
			}
		default:
			printReport(rep)
		}
		// The federation log honors bootQuiet too: reports at or below
		// the durable cursor were already pulled by the coordinator
		// before the crash, so re-recording them would re-merge them
		// under the fresh boot id.
		if reportLog != nil {
			reportLog.Record(rep)
		}
	})

	// Boot-time WAL recovery: replay the retained log through the
	// analyzer before going ready, so a crashed analyzer restarts with
	// the exact evidence state it died with. /healthz serves replay
	// progress as the 503 body until the suffix is in.
	var wlog *wal.Log
	var walSkip int
	if *walDir != "" {
		cursor := wal.LoadCursor(*walDir)
		if *replayN > 0 {
			// Self-test mode rebuilds and reprints the full deterministic
			// run: its output must be byte-identical to an uninterrupted
			// process, crash or no crash.
			cursor = 0
		}
		bootQuiet.Store(cursor > 0)
		telemetry.SetNotReadyReason("recovering: wal replay starting")
		walRes, err := replay.DriveWAL(analyzer, *walDir, replay.WALDrive{
			// The barrier flushes everything at or below the cursor
			// through the analyzer before lifting suppression, so a
			// report triggered by the first unprocessed record is never
			// swallowed mid-batch.
			Barrier:   cursor,
			OnBarrier: func() { bootQuiet.Store(false) },
			OnBatch: func(seg, total int, seq uint64) {
				telemetry.SetNotReadyReason(fmt.Sprintf("recovering: wal replay %d/%d", seg, total))
			},
		})
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		bootQuiet.Store(false)
		if walRes.Events > 0 || walRes.Recovery.Quarantined > 0 {
			log.Printf("wal: recovered %d events from %d segments (%d quarantined, %d bytes skipped) in %v",
				walRes.Events, walRes.Recovery.Segments, walRes.Recovery.Quarantined,
				walRes.Recovery.BytesSkipped, walRes.Wall.Round(time.Millisecond))
		}
		if walRes.Recovery.FirstSeq > 1 {
			log.Printf("wal: retention dropped records 1..%d; rebuilt state starts mid-history", walRes.Recovery.FirstSeq-1)
		}
		walSkip = int(walRes.Recovery.LastSeq)
		if wlog, err = wal.Open(wal.Options{Dir: *walDir, Fsync: fsyncPolicy, RetainBytes: *walRetain}); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		defer wlog.Close()
		analyzer.SetCapture(wlog)
	}

	var res replay.Result
	start := time.Now()
	// Analyzer constructed, hooks installed, WAL replayed: the loop below
	// is live.
	p.ready()
	if *replayN > 0 {
		// Self-test mode: a deterministic catalog workload with injected
		// faults, same shape as the Fig. 8c throughput experiments.
		events := replay.Synthesize(replay.StreamConfig{
			Ops: experiments.ThroughputMix(tempest.NewCatalog(*seed)), Concurrency: 400, Events: *replayN,
			FaultEvery: *faultEvery, Seed: *seed,
		})
		if walSkip > 0 {
			log.Printf("replaying %d synthesized events (one fault per %d, alpha=%d; resuming after %d from wal)",
				len(events), *faultEvery, analyzer.Config().Alpha, walSkip)
		} else {
			log.Printf("replaying %d synthesized events (one fault per %d, alpha=%d)",
				len(events), *faultEvery, analyzer.Config().Alpha)
		}
		res = replay.DriveFrom(analyzer, events, walSkip, *replayPace)
	} else {
		recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: *listen, DownAfter: *downAfter})
		if err != nil {
			return err
		}
		recvPtr.Store(recv)
		log.Printf("analyzer listening on %s (alpha=%d, federation member %q)", recv.Addr(), analyzer.Config().Alpha, *memberName)
		go untilSignal(recv.Close)

		// Drain events, state updates, and monitoring-plane health records on
		// one goroutine: gaps and dark agents degrade the analyzer gracefully
		// instead of silently corrupting fingerprint matching.
		res = replay.DriveTransport(analyzer, recv, store.Apply)
	}

	st := analyzer.Stats
	elapsed := time.Since(start)

	fmt.Printf("\n--- summary ---\n")
	fmt.Printf("events:    %d (%.0f/s, %.1f Mbps)\n", st.Events,
		float64(st.Events)/elapsed.Seconds(), float64(st.Bytes)*8/1e6/elapsed.Seconds())
	fmt.Printf("pairs:     %d REST, %d RPC\n", st.RESTPairs, st.RPCPairs)
	fmt.Printf("faults:    %d operational markers, %d latency alarms\n", st.Faults, st.PerfAlarms)
	fmt.Printf("reports:   %d (%d with no matching fingerprint)\n", st.Reports, st.FalseNegs)
	if res.Gaps > 0 {
		fmt.Printf("gaps:      %d monitoring-plane gaps (%d frames lost, %d stale pairs flushed)\n",
			res.Gaps, res.Missed, st.PairsFlushed)
	}
	if recv := recvPtr.Load(); recv != nil {
		// Per-agent stream ledger: last_seq - missing - dups = events this
		// receiver actually admitted from that agent. The federation
		// smoke asserts zero silent loss from these lines.
		stats := recv.AgentStats()
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			as := stats[name]
			fmt.Printf("agent:     %s last_seq=%d missing=%d dups=%d down=%v\n",
				name, as.LastSeq, as.Missing, as.Dups, as.Down)
		}
	}
	if st.SnapshotsShed > 0 {
		fmt.Printf("shed:      %d snapshots dropped under backpressure\n", st.SnapshotsShed)
	}
	if st.PairsEvicted > 0 {
		fmt.Printf("evicted:   %d unpaired requests aged out\n", st.PairsEvicted)
	}
	if traces != nil {
		fmt.Printf("traces:    %d evidence traces stored, %d evicted (cap %d, live %d)\n",
			res.TracesStored, res.TracesEvicted, traces.Cap(), traces.Len())
	}
	if wlog != nil {
		ws := wlog.Stats()
		fmt.Printf("wal:       %d records appended across %d segments (%d B, %d rotations, %d retired, cursor %d)\n",
			ws.Appended, ws.Segments, ws.Bytes, ws.Rotated, ws.Retired, wlog.Cursor())
	}
	if wm := telemetry.GetHistogram("core.window_match").Stats(); wm.Count > 0 {
		fmt.Printf("detect:    window-match p50=%.2fms p99=%.2fms max=%.2fms over %d snapshots\n",
			wm.P50Ms, wm.P99Ms, wm.MaxMs, wm.Count)
	}
	if rc := telemetry.GetHistogram("core.rca").Stats(); rc.Count > 0 {
		fmt.Printf("rca:       p50=%.2fms p99=%.2fms over %d invocations\n",
			rc.P50Ms, rc.P99Ms, rc.Count)
	}

	if sums := analyzer.LatencySummaries(); len(sums) > 0 {
		fmt.Printf("\nslowest APIs (p95):\n")
		for _, s := range sums[:min(len(sums), 8)] {
			fmt.Printf("  %-55v p50=%6.1fms p95=%6.1fms p99=%6.1fms n=%d\n",
				s.API, s.Summary.Quantile(0.5)*1000, s.Summary.Quantile(0.95)*1000,
				s.Summary.Quantile(0.99)*1000, s.Summary.Count())
		}
	}

	if *replayN > 0 && *telAddr != "" && *linger > 0 {
		log.Printf("lingering %v for trace/metric queries", *linger)
		time.Sleep(*linger)
	}
	return nil
}

func printReport(rep *core.Report) {
	fmt.Printf("[%s] %s fault: %v", rep.DetectedAt.Format("15:04:05.000"), rep.Kind, rep.OffendingAPI)
	if rep.Fault.ErrorText != "" {
		fmt.Printf(" (%s)", rep.Fault.ErrorText)
	}
	fmt.Println()
	fmt.Printf("  operations matched: %d of %d candidates (precision %.2f%%, beta %d)\n",
		len(rep.Candidates), rep.CandidatesByErrorOnly, rep.Precision*100, rep.Beta)
	shown := min(len(rep.Candidates), 5)
	for _, name := range rep.Candidates[:shown] {
		fmt.Printf("    - %s\n", name)
	}
	if len(rep.Candidates) > shown {
		fmt.Printf("    ... and %d more\n", len(rep.Candidates)-shown)
	}
	for _, rc := range rep.RootCauses {
		fmt.Printf("  root cause: %s\n", rc)
	}
	if rep.TraceID != 0 {
		fmt.Printf("  evidence: trace %d (/traces/%d)\n", rep.TraceID, rep.TraceID)
	}
	if len(rep.DegradedNodes) > 0 {
		fmt.Printf("  degraded confidence: monitoring gaps on %s\n", strings.Join(rep.DegradedNodes, ", "))
	}
}
