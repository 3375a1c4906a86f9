// Command gretel runs the GRETEL analyzer service: it listens for event
// streams from monitoring agents (see cmd/gretel-agent), detects
// operational and performance faults, localizes the responsible
// administrative operation against a fingerprint library, and prints
// fault reports as they are produced.
//
// Usage:
//
//	gretel -listen :6166 -library fingerprints.json
//	gretel -listen :6166 -seed 1            # library from the built-in catalog
//	gretel -listen :6166 -telemetry :6167   # + live /metrics and /debug/pprof
//
// Generate a fingerprint library with cmd/gretel-fingerprint, or let the
// analyzer build one from the deterministic Tempest-analogue catalog
// using -seed. With -telemetry, pipeline counters and per-stage latency
// histograms are served at /metrics (flat text, ?format=json for JSON)
// and profiling endpoints at /debug/pprof/.
//
// Detection runs on a worker pool sized by -detect-workers (default
// GOMAXPROCS) so Algorithm 2 never stalls event intake; -detect-workers 0
// restores the classic inline path. The detect queue is bounded
// (-detect-backlog); when full the receiver blocks, or drops snapshots
// if -detect-shed is set (counted in core.snapshots_shed). Reports are
// delivered in fault-arrival order either way.
//
// With -explain, every report also records a full evidence trace — the
// frozen window, span tree, per-candidate match scores and rejection
// reasons, β growth steps, identifier chain, and RCA inputs — into a
// bounded in-memory store (-trace-store-cap, oldest evicted first,
// evictions counted). Traces are browsable on the telemetry address at
// /traces (index) and /traces/<id> (text; ?format=json|ndjson|chrome,
// the latter loadable in Perfetto / chrome://tracing).
//
// -replay N switches to a self-contained mode: instead of listening for
// agents, synthesize N events from the catalog workload (one injected
// fault per -fault-every messages) and drive them through the analyzer,
// then keep the telemetry endpoints up for -linger before exiting.
//
// -wal DIR makes ingest durable: every event is appended to a segmented
// write-ahead log before analysis, and on restart the retained log is
// replayed through the analyzer before /healthz goes ready (the 503
// body reports "recovering: wal replay <segment>/<total>" meanwhile).
// -wal-fsync picks the durability/latency trade (none, interval, every)
// and -wal-retain bounds the log's disk footprint. Combined with
// -replay, a killed run resumes exactly where the log ends and its
// report output is byte-identical to an uninterrupted run.
//
// -member NAME runs the analyzer as one member of a federated fleet
// (see cmd/gretel-coord): reports are stamped with the member name, and
// the telemetry address additionally serves the bounded report history
// at /reports (pulled incrementally by the coordinator) and per-agent
// stream accounting at /agents. Without -member the analyzer still
// serves /reports and /agents when -telemetry is set — a federation of
// one is byte-identical to a bare analyzer — but reports carry no
// member stamp.
//
// -telemetry-export URL ships per-interval telemetry (counter deltas,
// gauge values, histogram quantiles) to a gretel-tsdb instance as
// InfluxDB line protocol, sampled every -export-interval and buffered
// up to -export-buffer points while the TSDB is unreachable — excess
// is shed oldest-first and counted, never silently dropped. The
// summary's "export:" line prints the closed ledger
// (sampled == delivered + shed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/federation"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
	"gretel/internal/tempest"
	"gretel/internal/tracestore"
	"gretel/internal/wal"
)

func main() {
	var (
		listen     = flag.String("listen", ":6166", "address to receive agent event streams on")
		libPath    = flag.String("library", "", "fingerprint library JSON (from gretel-fingerprint)")
		seed       = flag.Int64("seed", 1, "catalog seed used when -library is not given")
		alpha      = flag.Int("alpha", 0, "sliding window size (0 = derive from FPmax/Prate/t)")
		prate      = flag.Float64("prate", 150, "expected message rate (packets/s) for window sizing")
		horizonT   = flag.Float64("t", 1, "window time horizon t in seconds")
		perf       = flag.Bool("perf", true, "enable performance-fault detection")
		quiet      = flag.Bool("quiet", false, "suppress per-report output; print only the summary")
		jsonOut    = flag.Bool("json", false, "emit reports as JSON lines instead of text")
		telAddr    = flag.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :6167; empty disables)")
		workers    = flag.Int("detect-workers", runtime.GOMAXPROCS(0), "detection worker pool size (0 = detect inline on the receive path)")
		backlog    = flag.Int("detect-backlog", 0, "bounded detect queue capacity (0 = 4x workers)")
		shed       = flag.Bool("detect-shed", false, "shed snapshots when the detect queue is full instead of applying backpressure")
		downAfter  = flag.Duration("down-after", 5*time.Second, "declare an agent down after this long without frames or heartbeats (0 disables liveness tracking)")
		explain    = flag.Bool("explain", false, "record a full evidence trace per report, browsable at /traces on the telemetry address")
		traceCap   = flag.Int("trace-store-cap", tracestore.DefaultCap, "max evidence traces held in memory (oldest evicted first, evictions counted)")
		replayN    = flag.Int("replay", 0, "self-test mode: synthesize this many catalog-workload events and drive them instead of listening for agents")
		faultEvery = flag.Int("fault-every", 1000, "with -replay, inject one fault per this many messages")
		replayPace = flag.Duration("replay-pace", 0, "with -replay, sleep this long per 1000 events (crash smokes use it to land a kill mid-burst)")
		linger     = flag.Duration("linger", 0, "with -replay, keep telemetry endpoints serving this long after the run")
		walDir     = flag.String("wal", "", "write-ahead log directory: capture every ingested event durably and replay the unprocessed suffix on restart (empty disables)")
		walFsync   = flag.String("wal-fsync", "interval", "WAL fsync policy: none (OS flush only), interval (bounded loss window), every (fsync per append)")
		walRetain  = flag.Int64("wal-retain", 1<<30, "WAL retention budget in bytes; closed segments beyond it are dropped oldest-first (negative retains everything)")
		exportURL  = flag.String("telemetry-export", "", "ship per-interval telemetry to this gretel-tsdb base URL (e.g. http://127.0.0.1:9870; empty disables)")
		exportIvl  = flag.Duration("export-interval", time.Second, "sampling interval for -telemetry-export")
		exportBuf  = flag.Int("export-buffer", 10000, "points buffered in memory while the TSDB is unreachable (oldest shed beyond this, counted in export.points_shed)")
		memberName = flag.String("member", "", "federation member name: stamp reports with this id when running under a gretel-coord fleet (empty = standalone)")
	)
	flag.Parse()
	if err := validateFlags(*backlog, *traceCap, *walFsync, *exportIvl, *exportBuf); err != nil {
		fmt.Fprintf(os.Stderr, "gretel: %v\n", err)
		os.Exit(2)
	}

	var traces *tracestore.Store
	if *explain {
		traces = tracestore.New(*traceCap)
	}

	// Federation surface: the report history a coordinator pulls, and
	// per-agent stream accounting for ledger checks. Served whenever
	// telemetry is up — the coordinator probes/pulls these endpoints, so
	// a member is just an analyzer with -telemetry (the -member stamp is
	// optional and off by default to keep standalone output identical).
	var reportLog *federation.ReportLog
	// recvPtr publishes the receiver to the /agents handler; the
	// telemetry server starts before the receiver exists.
	var recvPtr atomic.Pointer[agent.Receiver]
	if *telAddr != "" {
		reportLog = federation.NewReportLog(0)
		var mounts []telemetry.Mount
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
		bound, _, err := telemetry.Serve(*telAddr, nil, mounts...)
		if err != nil {
			log.Fatal(err)
		}
		if traces != nil {
			log.Printf("telemetry on http://%s/metrics (traces at /traces, reports at /reports, pprof at /debug/pprof/)", bound)
		} else {
			log.Printf("telemetry on http://%s/metrics (reports at /reports, pprof at /debug/pprof/)", bound)
		}
	}

	// Telemetry export: the sampler walks the process-global registry, so
	// it works with or without -telemetry. A down TSDB is not an error —
	// the shipper retries with backoff and sheds oldest-first, counted.
	var exporter *export.Exporter
	if *exportURL != "" {
		var err error
		exporter, err = export.Start(export.Options{
			URL:      *exportURL,
			Interval: *exportIvl,
			Buffer:   *exportBuf,
			Proc:     "gretel",
		})
		if err != nil {
			log.Fatalf("telemetry export: %v", err)
		}
		log.Printf("exporting telemetry to %s every %v (buffer %d points)", *exportURL, *exportIvl, *exportBuf)
	}

	var lib *fingerprint.Library
	var err error
	if *libPath != "" {
		lib, err = fingerprint.LoadFile(*libPath)
		if err != nil {
			log.Fatalf("loading library: %v", err)
		}
		log.Printf("loaded %d fingerprints from %s (FPmax=%d)", lib.Len(), *libPath, lib.MaxLen())
	} else {
		cat := tempest.NewCatalog(*seed)
		lib = fingerprint.NewLibrary()
		for _, test := range cat.Tests {
			lib.AddAPIs(test.Op.Name, test.Op.Category.String(), test.Op.APIs())
		}
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
	var sinks []func(*core.Report)
	if !*quiet {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			sinks = append(sinks, func(rep *core.Report) {
				if err := enc.Encode(rep); err != nil {
					log.Printf("encoding report: %v", err)
				}
			})
		} else {
			sinks = append(sinks, printReport)
		}
	}
	if reportLog != nil {
		// The federation log honors bootQuiet too: reports at or below
		// the durable cursor were already pulled by the coordinator
		// before the crash, so re-recording them would re-merge them
		// under the fresh boot id.
		sinks = append(sinks, reportLog.Record)
	}
	if len(sinks) > 0 {
		analyzer.OnReport(func(rep *core.Report) {
			if bootQuiet.Load() {
				return
			}
			for _, sink := range sinks {
				sink(rep)
			}
		})
	}

	// Boot-time WAL recovery: replay the retained log through the
	// analyzer before going ready, so a crashed analyzer restarts with
	// the exact evidence state it died with. /healthz serves replay
	// progress as the 503 body until the suffix is in.
	var wlog *wal.Log
	var walSkip int
	if *walDir != "" {
		fsyncPolicy, _ := wal.ParseFsync(*walFsync) // validated above
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
			log.Fatalf("wal recovery: %v", err)
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
		wlog, err = wal.Open(wal.Options{Dir: *walDir, Fsync: fsyncPolicy, RetainBytes: *walRetain})
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
		defer wlog.Close()
		analyzer.SetCapture(wlog)
	}

	var res replay.Result
	start := time.Now()
	// Analyzer constructed, hooks installed, WAL replayed: the loop below
	// is live. /healthz on the telemetry address flips to 200 from here on.
	telemetry.SetReady(true)
	defer telemetry.SetReady(false)
	if *replayN > 0 {
		// Self-test mode: a deterministic catalog workload with injected
		// faults, same shape as the Fig. 8c throughput experiments.
		cat := tempest.NewCatalog(*seed)
		var ops []*openstack.Operation
		for i, test := range cat.Tests {
			if i%6 == 0 {
				ops = append(ops, test.Op)
			}
		}
		events := replay.Synthesize(replay.StreamConfig{
			Ops: ops, Concurrency: 400, Events: *replayN,
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
			log.Fatal(err)
		}
		recvPtr.Store(recv)
		if *memberName != "" {
			log.Printf("analyzer listening on %s (alpha=%d, federation member %q)", recv.Addr(), analyzer.Config().Alpha, *memberName)
		} else {
			log.Printf("analyzer listening on %s (alpha=%d)", recv.Addr(), analyzer.Config().Alpha)
		}

		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		go func() {
			<-sig
			log.Print("interrupt: draining")
			recv.Close()
		}()

		// Drain events, state updates, and monitoring-plane health records on
		// one goroutine: gaps and dark agents degrade the analyzer gracefully
		// instead of silently corrupting fingerprint matching.
		res = replay.DriveTransport(analyzer, recv, store.Apply)
	}

	st := analyzer.Stats
	elapsed := time.Since(start)

	// Close the exporter before printing the summary: the final sample
	// and drain happen here, so the printed ledger is the closed one in
	// which delivered + shed == sampled exactly.
	var exportStats export.ExporterStats
	if exporter != nil {
		exporter.Drain(5 * time.Second)
		exporter.Close()
		exportStats = exporter.Stats()
	}

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
	if exporter != nil {
		fmt.Printf("export:    sampled %d delivered %d shed %d\n",
			exportStats.Sampled, exportStats.Delivered, exportStats.Shed)
	}
	if wm := telemetry.GetHistogram("core.window_match").Stats(); wm.Count > 0 {
		fmt.Printf("detect:    window-match p50=%.2fms p99=%.2fms max=%.2fms over %d snapshots\n",
			wm.P50Ms, wm.P99Ms, wm.MaxMs, wm.Count)
	}
	if rc := telemetry.GetHistogram("core.rca").Stats(); rc.Count > 0 {
		fmt.Printf("rca:       p50=%.2fms p99=%.2fms over %d invocations\n",
			rc.P50Ms, rc.P99Ms, rc.Count)
	}

	sums := analyzer.LatencySummaries()
	if len(sums) > 0 {
		fmt.Printf("\nslowest APIs (p95):\n")
		show := len(sums)
		if show > 8 {
			show = 8
		}
		for _, s := range sums[:show] {
			fmt.Printf("  %-55v p50=%6.1fms p95=%6.1fms p99=%6.1fms n=%d\n",
				s.API, s.Summary.Quantile(0.5)*1000, s.Summary.Quantile(0.95)*1000,
				s.Summary.Quantile(0.99)*1000, s.Summary.Count())
		}
	}

	if *replayN > 0 && *telAddr != "" && *linger > 0 {
		log.Printf("lingering %v for trace/metric queries", *linger)
		time.Sleep(*linger)
	}
}

// validateFlags rejects size flags that parse but cannot be meant.
// Negative values would silently flip internal sentinels ("use the
// default", "cap disabled") a CLI user has no reason to request — fail
// loudly with exit 2 instead.
func validateFlags(detectBacklog, traceStoreCap int, walFsync string, exportIvl time.Duration, exportBuf int) error {
	switch {
	case detectBacklog < 0:
		return fmt.Errorf("-detect-backlog must be >= 0, got %d (0 means 4x workers)", detectBacklog)
	case traceStoreCap < 0:
		return fmt.Errorf("-trace-store-cap must be >= 0, got %d (0 means the default cap)", traceStoreCap)
	case exportIvl <= 0:
		return fmt.Errorf("-export-interval must be > 0, got %v", exportIvl)
	case exportBuf <= 0:
		return fmt.Errorf("-export-buffer must be > 0, got %d", exportBuf)
	}
	if _, err := wal.ParseFsync(walFsync); err != nil {
		return fmt.Errorf("-wal-fsync: %w", err)
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
	max := len(rep.Candidates)
	if max > 5 {
		max = 5
	}
	for _, name := range rep.Candidates[:max] {
		fmt.Printf("    - %s\n", name)
	}
	if len(rep.Candidates) > max {
		fmt.Printf("    ... and %d more\n", len(rep.Candidates)-max)
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
