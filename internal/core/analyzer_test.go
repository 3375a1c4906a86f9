package core

import (
	"slices"
	"testing"
	"time"

	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/tsoutliers"
	"gretel/internal/window"
)

var epoch = time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }

func get(p string) trace.API  { return trace.RESTAPI(trace.SvcNova, "GET", p) }
func post(p string) trace.API { return trace.RESTAPI(trace.SvcNova, "POST", p) }
func rpc(m string) trace.API  { return trace.RPCAPI(trace.SvcNovaCompute, m) }

// testLib builds a small library of three operations.
func testLib() *fingerprint.Library {
	lib := fingerprint.NewLibrary()
	lib.AddAPIs("op-a", "Compute", []trace.API{get("/list"), post("/a1"), rpc("build"), post("/a2"), get("/status")})
	lib.AddAPIs("op-b", "Compute", []trace.API{get("/list"), post("/b1"), post("/a2"), get("/status")})
	lib.AddAPIs("op-c", "Storage", []trace.API{post("/c1"), get("/c2")})
	return lib
}

// stream is a helper that emits a REST exchange for an API. Events go
// to the analyzer, or to emit when set (the entry-point parity test
// records the stream once and replays it through IngestBatch).
type stream struct {
	a    *Analyzer
	emit func(trace.Event)
	conn uint64
	msg  int
	ms   int
	// client and server name the nodes of the next exchanges: a request
	// goes from client to server, its response back. corr is their
	// correlation id.
	client, server, corr string
	// blind zeroes the ground-truth OpID and OpName of every event, as a
	// deployment sees it.
	blind bool
}

func (s *stream) push(ev trace.Event) {
	ev.SrcNode, ev.DstNode = s.client, s.server
	if !ev.Type.Request() {
		ev.SrcNode, ev.DstNode = s.server, s.client
	}
	ev.CorrID = s.corr
	if s.blind {
		ev.OpID, ev.OpName = 0, ""
	}
	if s.emit != nil {
		s.emit(ev)
		return
	}
	s.a.Ingest(ev)
}

func (s *stream) rest(api trace.API, status int, opID uint64, opName string) {
	s.conn++
	s.ms += 10
	s.push(trace.Event{
		Time: at(s.ms), Type: trace.RESTRequest, API: api,
		ConnID: s.conn, OpID: opID, OpName: opName, WireBytes: 150,
	})
	s.ms += 10
	s.push(trace.Event{
		Time: at(s.ms), Type: trace.RESTResponse, API: api, Status: status,
		ConnID: s.conn, OpID: opID, OpName: opName, WireBytes: 180,
	})
}

func (s *stream) rpcCall(api trace.API, fail bool, opID uint64, opName string) {
	s.msg++
	id := "m" + itoa(s.msg)
	s.ms += 10
	s.push(trace.Event{
		Time: at(s.ms), Type: trace.RPCCall, API: api,
		MsgID: id, OpID: opID, OpName: opName, WireBytes: 200,
	})
	s.ms += 10
	status := 0
	if fail {
		status = 1
	}
	s.push(trace.Event{
		Time: at(s.ms), Type: trace.RPCReply, API: api, Status: status,
		MsgID: id, OpID: opID, OpName: opName, WireBytes: 120,
	})
}

func (s *stream) filler(n int) {
	for i := 0; i < n; i++ {
		s.rest(get("/filler"), 200, 999, "bg")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func newAnalyzer(cfg Config) *Analyzer {
	return New(testLib(), cfg)
}

func TestConfigDefaultsPaperValues(t *testing.T) {
	lib := fingerprint.NewLibrary()
	// Give the library an FPmax of 384 like the paper.
	apis := make([]trace.API, 384)
	for i := range apis {
		apis[i] = get("/x" + itoa(i))
	}
	lib.AddAPIs("giant", "Compute", apis)
	a := New(lib, Config{})
	cfg := a.Config()
	if cfg.Alpha != 768 {
		t.Fatalf("alpha = %d, want 768", cfg.Alpha)
	}
	if int(c1*float64(cfg.Alpha)) != 76 { // β₀ ≈ 80 in the paper (rounding)
		t.Logf("beta0 = %d", int(c1*float64(cfg.Alpha)))
	}
	if cfg.DisablePruneRPC {
		t.Fatal("RPC pruning should default on")
	}
}

func TestPairingAndStats(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32})
	s := &stream{a: a}
	s.rest(get("/list"), 200, 1, "op-a")
	s.rpcCall(rpc("build"), false, 1, "op-a")
	if a.Stats.RESTPairs != 1 || a.Stats.RPCPairs != 1 {
		t.Fatalf("pairs: %d REST %d RPC", a.Stats.RESTPairs, a.Stats.RPCPairs)
	}
	if a.Stats.Events != 4 || a.Stats.Bytes == 0 {
		t.Fatalf("events=%d bytes=%d", a.Stats.Events, a.Stats.Bytes)
	}
}

func TestOperationalFaultDetection(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32})
	s := &stream{a: a}
	// op-a runs and fails at POST /a2.
	s.rest(get("/list"), 200, 1, "op-a")
	s.rest(post("/a1"), 200, 1, "op-a")
	s.rpcCall(rpc("build"), false, 1, "op-a")
	s.rest(post("/a2"), 500, 1, "op-a") // fault
	// Future half of the window fills with background traffic.
	s.filler(20)
	a.Flush()

	reps := a.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Kind != Operational {
		t.Fatalf("kind = %v", rep.Kind)
	}
	if !rep.Hit() {
		t.Fatalf("truth %q not in candidates %v", rep.TruthOp, rep.Candidates)
	}
	// op-b also contains POST /a2; its other state-change symbol (POST
	// /b1) is absent from the window, so under the paper's
	// omission-tolerant semantics it remains a (counted) false positive.
	if len(rep.Candidates) > 2 {
		t.Fatalf("candidate set too large: %v", rep.Candidates)
	}
	if rep.CandidatesByErrorOnly != 2 { // op-a and op-b contain POST /a2
		t.Fatalf("CandidatesByErrorOnly = %d, want 2", rep.CandidatesByErrorOnly)
	}
	if rep.Precision <= 0 || rep.Precision > 1 {
		t.Fatalf("precision = %v", rep.Precision)
	}
	if rep.ReportDelay < 0 {
		t.Fatalf("negative report delay")
	}
}

func TestInterleavedOperationsStillIsolate(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 64})
	s := &stream{a: a}
	// op-c interleaves with op-a; op-a fails.
	s.rest(get("/list"), 200, 1, "op-a")
	s.rest(post("/c1"), 200, 2, "op-c")
	s.rest(post("/a1"), 200, 1, "op-a")
	s.rest(get("/c2"), 200, 2, "op-c")
	s.rpcCall(rpc("build"), false, 1, "op-a")
	s.rest(post("/a2"), 503, 1, "op-a")
	s.filler(40)
	a.Flush()

	reps := a.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if !reps[0].Hit() {
		t.Fatalf("missed truth: %v", reps[0].Candidates)
	}
}

func TestRPCErrorSelectsUpstreamAPI(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32})
	s := &stream{a: a, blind: true}
	s.rest(get("/list"), 200, 1, "op-a")
	s.rest(post("/a1"), 200, 1, "op-a")
	s.rpcCall(rpc("build"), true, 1, "op-a") // upstream RPC failure
	s.rest(get("/status"), 500, 1, "op-a")   // relayed REST error
	s.filler(20)
	a.Flush()

	reps := a.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1 (snapshot only on REST errors)", len(reps))
	}
	rep := reps[0]
	if rep.OffendingAPI != rpc("build") {
		t.Fatalf("offending = %v, want the upstream RPC", rep.OffendingAPI)
	}
	if len(rep.Errors) != 2 {
		t.Fatalf("errors in snapshot = %d, want 2", len(rep.Errors))
	}
	if !slices.Contains(rep.Candidates, "op-a") {
		t.Fatalf("candidates = %v, want op-a among them", rep.Candidates)
	}
}

// TestUpstreamAPIRule pins each condition of the offending-API rule on
// blind streams: walking back from the fault, the nearest earlier error
// sent or received by the fault's serving node, sharing a fingerprint
// with the fault's API and, under UseCorrelationIDs, carrying its
// correlation id, names the offending API.
func TestUpstreamAPIRule(t *testing.T) {
	fault := get("/status")
	for _, tc := range []struct {
		name    string
		cfg     Config
		earlier func(s *stream)
		want    trace.API
	}{
		{"received by the serving node", Config{}, func(s *stream) {
			s.client, s.server = "nova-api", "compute-1"
			s.rpcCall(rpc("build"), true, 1, "op-a")
		}, rpc("build")},
		{"another node's error is skipped", Config{}, func(s *stream) {
			s.client, s.server = "conductor", "compute-1"
			s.rpcCall(rpc("build"), true, 1, "op-a")
		}, fault},
		{"no shared fingerprint is skipped", Config{}, func(s *stream) {
			s.rest(post("/c1"), 500, 2, "op-c")
		}, fault},
		{"another correlation id is skipped", Config{UseCorrelationIDs: true}, func(s *stream) {
			s.corr = "req-2"
			s.rpcCall(rpc("build"), true, 2, "op-a")
		}, fault},
		{"the nearest qualifying error wins", Config{}, func(s *stream) {
			s.rest(post("/a1"), 500, 1, "op-a")
			s.rpcCall(rpc("build"), true, 1, "op-a")
		}, rpc("build")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Alpha = 32
			a := newAnalyzer(cfg)
			s := &stream{a: a, blind: true, client: "horizon", server: "nova-api", corr: "req-1"}
			tc.earlier(s)
			s.client, s.server, s.corr = "horizon", "nova-api", "req-1"
			s.rest(fault, 500, 1, "op-a")
			s.filler(20)
			a.Flush()
			reps := a.Reports()
			rep := reps[len(reps)-1]
			if rep.Fault.API != fault {
				t.Fatalf("last report is for %v, want %v", rep.Fault.API, fault)
			}
			if rep.OffendingAPI != tc.want {
				t.Fatalf("offending = %v, want %v", rep.OffendingAPI, tc.want)
			}
		})
	}
}

func TestSnapshotOnlyOnRESTErrorsByDefault(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	s := &stream{a: a}
	s.rpcCall(rpc("build"), true, 1, "op-a") // RPC failure alone
	s.filler(20)
	a.Flush()
	if len(a.Reports()) != 0 {
		t.Fatalf("RPC error armed a snapshot: %d reports", len(a.Reports()))
	}
	if a.Stats.Faults != 1 {
		t.Fatalf("fault not counted: %d", a.Stats.Faults)
	}

	// With the ablation flag, the RPC error alone triggers detection.
	a2 := newAnalyzer(Config{Alpha: 16, SnapshotOnRPCErrors: true})
	s2 := &stream{a: a2}
	s2.rest(post("/a1"), 200, 1, "op-a")
	s2.rpcCall(rpc("build"), true, 1, "op-a")
	s2.filler(20)
	a2.Flush()
	if len(a2.Reports()) != 1 {
		t.Fatalf("reports = %d, want 1", len(a2.Reports()))
	}
}

func TestUnknownAPIFalseNegative(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	s := &stream{a: a}
	// An API never fingerprinted fails: no candidates (limitation 4).
	s.rest(trace.RESTAPI(trace.SvcSwift, "GET", "/v1/never-learned"), 500, 1, "mystery")
	s.filler(10)
	a.Flush()
	reps := a.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d", len(reps))
	}
	if len(reps[0].Candidates) != 0 || a.Stats.FalseNegs != 1 {
		t.Fatalf("expected false negative, got %v", reps[0].Candidates)
	}
}

func TestPerformanceFaultDetection(t *testing.T) {
	a := newAnalyzer(Config{
		Alpha:         64,
		PerfDetection: true,
		Latency:       tsoutliers.Options{Warmup: 8, MinRun: 3, MinSpread: 0.005},
	})
	s := &stream{a: a}
	// Run full op-a instances to build a steady latency baseline for
	// every API (the stream helper uses fixed 10ms gaps), then run
	// instances whose GET /status responses are 20x slower.
	runOpA := func(id uint64, slowStatus bool) {
		s.rest(get("/list"), 200, id, "op-a")
		s.rest(post("/a1"), 200, id, "op-a")
		s.rpcCall(rpc("build"), false, id, "op-a")
		s.rest(post("/a2"), 200, id, "op-a")
		if !slowStatus {
			s.rest(get("/status"), 200, id, "op-a")
			return
		}
		s.conn++
		s.ms += 10
		a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTRequest, API: get("/status"), ConnID: s.conn, OpID: id, OpName: "op-a"})
		s.ms += 200
		a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTResponse, API: get("/status"), Status: 200, ConnID: s.conn, OpID: id, OpName: "op-a"})
	}
	for i := 0; i < 15; i++ {
		runOpA(uint64(i+1), false)
	}
	for i := 0; i < 6; i++ {
		runOpA(uint64(100+i), true)
	}
	s.filler(40)
	a.Flush()

	if a.Stats.PerfAlarms == 0 {
		t.Fatal("no latency alarms raised")
	}
	var perf *Report
	for _, r := range a.Reports() {
		if r.Kind == Performance {
			perf = r
			break
		}
	}
	if perf == nil {
		t.Fatal("no performance report")
	}
	if perf.Latency <= 0 {
		t.Fatalf("perf latency = %v", perf.Latency)
	}
	// GET /status appears in op-a and op-b; both may match (the paper
	// reports possible operations); ground truth must be included.
	if !perf.Hit() {
		t.Fatalf("perf candidates = %v", perf.Candidates)
	}
	if det := a.LatencyDetector(get("/status")); det == nil || len(det.Shifts()) == 0 {
		t.Fatal("level shift not recorded")
	}
}

// TestAlphaBelowMinimum: an α the window raises to window.MinAlpha reads
// back raised, and a performance report's β (the whole window) equals
// it.
func TestAlphaBelowMinimum(t *testing.T) {
	for _, alpha := range []int{-5, 1} {
		a := newAnalyzer(Config{
			Alpha: alpha, PerfDetection: true,
			Latency: tsoutliers.Options{Warmup: 8, MinRun: 3, MinSpread: 0.005},
		})
		if got := a.Config().Alpha; got != window.MinAlpha {
			t.Fatalf("Alpha %d: Config().Alpha = %d, want %d", alpha, got, window.MinAlpha)
		}
		s := &stream{a: a}
		for i := 0; i < 20; i++ {
			s.rest(get("/status"), 200, 1, "op-a")
		}
		for i := 0; i < 6; i++ { // each past the last one's cooldown, so every alarm arms
			s.conn++
			s.ms += int(perfCooldown / time.Millisecond)
			a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTRequest, API: get("/status"), ConnID: s.conn})
			s.ms += 300
			a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTResponse, API: get("/status"), Status: 200, ConnID: s.conn})
		}
		a.Flush()
		perf := 0
		for _, r := range a.Reports() {
			if r.Kind != Performance {
				continue
			}
			perf++
			if r.Beta != window.MinAlpha {
				t.Fatalf("Alpha %d: performance report Beta = %d, want %d", alpha, r.Beta, window.MinAlpha)
			}
		}
		if perf == 0 {
			t.Fatalf("Alpha %d: no performance report", alpha)
		}
	}
}

func TestGrowToCoverAblation(t *testing.T) {
	run := func(growToCover bool) int {
		a := newAnalyzer(Config{Alpha: 64, GrowToCover: growToCover})
		s := &stream{a: a}
		s.rest(get("/list"), 200, 1, "op-a")
		s.rest(post("/a1"), 200, 1, "op-a")
		s.rpcCall(rpc("build"), false, 1, "op-a")
		// Unrelated op-b runs fully elsewhere in the window.
		s.rest(get("/list"), 200, 2, "op-b")
		s.rest(post("/b1"), 200, 2, "op-b")
		s.rest(post("/a2"), 200, 2, "op-b")
		s.rest(post("/a2"), 500, 1, "op-a")
		s.filler(40)
		a.Flush()
		if len(a.Reports()) == 0 {
			t.Fatal("no reports")
		}
		return len(a.Reports()[0].Candidates)
	}
	tight := run(false)
	full := run(true)
	if tight < 1 || full < tight {
		t.Fatalf("tight=%d full=%d; growing to cover should never shrink the match set", tight, full)
	}
}

func TestOnReportCallback(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	var got []*Report
	a.OnReport(func(r *Report) { got = append(got, r) })
	s := &stream{a: a}
	s.rest(post("/a2"), 500, 1, "op-a")
	s.filler(20)
	a.Flush()
	if len(got) != len(a.Reports()) || len(got) == 0 {
		t.Fatalf("callback fired %d times, reports %d", len(got), len(a.Reports()))
	}
}

func TestRCAHookInvoked(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	a.SetRCA(func(r *Report) []RootCause {
		return []RootCause{{Node: "nova-node", Kind: "software", Detail: "ntp stopped"}}
	})
	s := &stream{a: a}
	s.rest(post("/a2"), 500, 1, "op-a")
	s.filler(20)
	a.Flush()
	reps := a.Reports()
	if len(reps) == 0 || len(reps[0].RootCauses) != 1 {
		t.Fatal("RCA hook not invoked")
	}
	if reps[0].RootCauses[0].String() == "" {
		t.Fatal("empty root cause string")
	}
}

func TestFaultKindString(t *testing.T) {
	if Operational.String() != "operational" || Performance.String() != "performance" ||
		FaultKind(9).String() != "unknown" {
		t.Fatal("kind strings")
	}
}

func TestMultipleFaultsMultipleReports(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32})
	s := &stream{a: a, blind: true}
	s.rest(get("/list"), 200, 1, "op-a")
	s.rest(post("/a1"), 200, 1, "op-a")
	s.rpcCall(rpc("build"), false, 1, "op-a")
	s.rest(post("/a2"), 500, 1, "op-a")
	s.filler(5)
	s.rest(post("/c1"), 409, 2, "op-c")
	s.filler(40)
	a.Flush()
	if len(a.Reports()) != 2 {
		t.Fatalf("reports = %d, want 2", len(a.Reports()))
	}
	for i, truth := range []string{"op-a", "op-c"} {
		if r := a.Reports()[i]; !slices.Contains(r.Candidates, truth) {
			t.Fatalf("report for %q missed: %v", truth, r.Candidates)
		}
	}
}

func TestPruneRPCAblationChangesPattern(t *testing.T) {
	// With pruning on (default) the one RPC request is dropped from the
	// matched pattern; with it off the pattern carries that symbol too,
	// and detection must still find the true op.
	var patternSyms [2]uint64
	for i, disable := range []bool{false, true} {
		a := newAnalyzer(Config{Alpha: 32, DisablePruneRPC: disable})
		before := mPatternSyms.Value()
		s := &stream{a: a}
		s.rest(get("/list"), 200, 1, "op-a")
		s.rest(post("/a1"), 200, 1, "op-a")
		s.rpcCall(rpc("build"), false, 1, "op-a")
		s.rest(post("/a2"), 500, 1, "op-a")
		s.filler(20)
		a.Flush()
		patternSyms[i] = mPatternSyms.Value() - before
		if len(a.Reports()) != 1 || !a.Reports()[0].Hit() {
			t.Fatalf("DisablePruneRPC=%v: detection failed: %+v", disable, a.Reports())
		}
	}
	if patternSyms[1] != patternSyms[0]+1 {
		t.Fatalf("pattern symbols: %d pruned, %d unpruned; want the RPC symbol to add exactly one",
			patternSyms[0], patternSyms[1])
	}
}

func TestLatencySummaries(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32})
	s := &stream{a: a}
	for i := 0; i < 20; i++ {
		s.rest(get("/list"), 200, 1, "op-a")
		s.rest(post("/a1"), 200, 1, "op-a")
	}
	sums := a.LatencySummaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	for _, sum := range sums {
		if sum.Summary.Count() != 20 {
			t.Fatalf("%v count = %d", sum.API, sum.Summary.Count())
		}
		// The stream helper uses a fixed 10ms request->response gap.
		if p50 := sum.Summary.Quantile(0.5); p50 < 0.009 || p50 > 0.011 {
			t.Fatalf("%v p50 = %v, want ~10ms", sum.API, p50)
		}
	}
	// Errors are excluded from latency stats.
	s.rest(post("/a2"), 500, 1, "op-a")
	for _, sum := range a.LatencySummaries() {
		if sum.API == post("/a2") {
			t.Fatal("faulty exchange entered latency summaries")
		}
	}
}

// TestPerfCooldownSuppressesSnapshotStorm: a sustained anomaly on one
// API arms fewer snapshots within the 30 s cooldown than the same
// exchanges arm spaced past it, and the API arms again once the
// cooldown has passed.
func TestPerfCooldownSuppressesSnapshotStorm(t *testing.T) {
	slow := func(s *stream, n, gapMs, latencyMs int) {
		for i := 0; i < n; i++ {
			s.conn++
			s.ms += gapMs
			s.a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTRequest, API: get("/status"), ConnID: s.conn})
			s.ms += latencyMs
			s.a.Ingest(trace.Event{Time: at(s.ms), Type: trace.RESTResponse, API: get("/status"), Status: 200, ConnID: s.conn})
		}
	}
	// Baseline, then a long run of slow exchanges on one API, gapMs
	// apart.
	mk := func(gapMs int) (*stream, uint64) {
		s := &stream{a: newAnalyzer(Config{
			Alpha: 64, PerfDetection: true,
			Latency: tsoutliers.Options{Warmup: 8, MinRun: 3, MinSpread: 0.005},
		})}
		for i := 0; i < 20; i++ {
			s.rest(get("/status"), 200, 1, "op-a")
		}
		slow(s, 15, gapMs, 300)
		s.a.Flush()
		return s, s.a.Stats.Snapshots
	}
	_, storm := mk(int(perfCooldown / time.Millisecond)) // every alarm past the last one's cooldown
	s, calmed := mk(10)                                  // the whole anomaly within five seconds
	if calmed >= storm {
		t.Fatalf("cooldown did not reduce snapshots: %d vs %d", calmed, storm)
	}
	if calmed == 0 {
		t.Fatal("cooldown suppressed the first snapshot too")
	}
	// Past the cooldown, a further shift arms again.
	alarms := s.a.Stats.PerfAlarms
	s.ms += int(perfCooldown / time.Millisecond)
	slow(s, 15, 10, 900)
	s.a.Flush()
	if s.a.Stats.PerfAlarms == alarms {
		t.Fatal("the second shift raised no alarm")
	}
	if s.a.Stats.Snapshots == calmed {
		t.Fatalf("no snapshot re-armed %v after the last: %d alarms since", perfCooldown, s.a.Stats.PerfAlarms-alarms)
	}
}
