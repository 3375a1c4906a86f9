package benchrunner

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gretel/internal/telemetry"
)

// benchSink keeps per-iteration allocations alive past escape analysis
// so the runner's MemStats accounting has something to measure.
var benchSink []byte

// busyScenario is a minimal in-test scenario: deterministic CPU-bound
// work with a known events/op, used to exercise the runner without
// dragging in a pipeline.
type busyScenario struct {
	spins      int
	setupRan   bool
	tornDown   bool
	iterations int
}

func (s *busyScenario) Name() string        { return "busy" }
func (s *busyScenario) Description() string { return "test scenario" }
func (s *busyScenario) Setup(opts Options) error {
	s.setupRan = true
	return nil
}
func (s *busyScenario) Teardown() error { s.tornDown = true; return nil }
func (s *busyScenario) Cases() []Case {
	return []Case{{
		Name: "spin",
		Run: func() (Metrics, error) {
			s.iterations++
			telemetry.GetCounter("bench_test.spins").Inc()
			x := 1.0
			for i := 0; i < s.spins; i++ {
				x = x*1.0000001 + float64(i%7)
			}
			_ = x
			// Allocate something measurable.
			benchSink = make([]byte, 4096)
			benchSink[0] = 1
			return Metrics{EventsPerOp: 1000, "events/s": 5e6}, nil
		},
	}}
}

func TestRunnerMeasuresAndDerives(t *testing.T) {
	s := &busyScenario{spins: 100000}
	res, err := Run(s, Options{Iterations: 3, Short: true, Timestamp: time.Unix(1754600000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !s.setupRan || !s.tornDown {
		t.Fatalf("lifecycle: setup=%v teardown=%v", s.setupRan, s.tornDown)
	}
	if s.iterations != 3 {
		t.Fatalf("case ran %d times, want 3", s.iterations)
	}
	if res.Schema != CurrentSchema || res.Scenario != "busy" || !res.Short {
		t.Fatalf("header fields wrong: %+v", res)
	}
	if res.GitRev == "" || res.GoVersion == "" || res.GOMAXPROCS < 1 {
		t.Fatalf("provenance missing: rev=%q go=%q procs=%d", res.GitRev, res.GoVersion, res.GOMAXPROCS)
	}
	if _, err := time.Parse(time.RFC3339, res.Timestamp); err != nil {
		t.Fatalf("timestamp %q not RFC3339: %v", res.Timestamp, err)
	}
	if len(res.Cases) != 1 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	c := res.Cases[0]
	if c.NsPerOp <= 0 {
		t.Errorf("ns_per_op = %v", c.NsPerOp)
	}
	if c.AllocsPerOp <= 0 || c.BytesPerOp < 4096 {
		t.Errorf("allocations not measured: allocs=%v bytes=%v", c.AllocsPerOp, c.BytesPerOp)
	}
	for _, want := range []string{"events/s", "ns/event", "allocs/event", "B/event"} {
		if _, ok := c.Extra[want]; !ok {
			t.Errorf("extra %q missing: %v", want, c.Extra)
		}
	}
	if got, want := c.Extra["ns/event"], c.NsPerOp/1000; got != want {
		t.Errorf("ns/event = %v, want %v", got, want)
	}
	// The telemetry snapshot rides along and reflects this run.
	if res.Telemetry == nil {
		t.Fatal("telemetry snapshot missing")
	}
	if got := res.Telemetry.Counters["bench_test.spins"]; got != 3 {
		t.Errorf("telemetry counter = %d, want 3 (registry not reset per run?)", got)
	}
}

func TestRunnerProfileCapturesHotspots(t *testing.T) {
	dir := t.TempDir()
	// Enough CPU-bound work for the 100 Hz profiler to land samples.
	s := &busyScenario{spins: 40_000_000}
	res, err := Run(s, Options{Iterations: 2, Profile: true, ProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"busy.cpu.pprof", "busy.heap.pprof"} {
		if _, err := TopHotspots(filepath.Join(dir, p), "cpu", 1); err != nil {
			t.Errorf("profile %s unreadable: %v", p, err)
		}
	}
	if len(res.CPUHotspots) == 0 {
		t.Fatal("no CPU hotspots recorded")
	}
	if len(res.CPUHotspots) > 3 {
		t.Fatalf("hotspots not capped at 3: %v", res.CPUHotspots)
	}
	for _, h := range res.CPUHotspots {
		if h.Function == "" || h.FlatPct <= 0 || h.FlatPct > 100 {
			t.Errorf("bad hotspot %+v", h)
		}
	}
	if len(res.HeapHotspots) == 0 {
		t.Fatal("no heap hotspots recorded")
	}
}

func TestRegistryAndResolve(t *testing.T) {
	want := []string{"ingest", "fig8c-parallel", "explain-overhead", "chaos-soak", "table1-learning", "detector", "wal-append", "export-overhead", "cluster-soak", "opdetect", "monitor", "rca"}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for _, name := range want {
		s, ok := Get(name)
		if !ok || s.Name() != name || s.Description() == "" {
			t.Errorf("Get(%q) = %v, %v", name, s, ok)
		}
	}
	all, err := Resolve("all")
	if err != nil || len(all) != len(want) {
		t.Fatalf("Resolve(all) = %v, %v", all, err)
	}
	two, err := Resolve("ingest, table1-learning")
	if err != nil || strings.Join(two, ",") != "ingest,table1-learning" {
		t.Fatalf("Resolve(list) = %v, %v", two, err)
	}
	if _, err := Resolve("nope"); err == nil {
		t.Fatal("Resolve accepted an unknown scenario")
	}
}

// TestScenarioIngestShort drives the real ingest scenario once in short
// mode: the harness must produce per-case throughput numbers from the
// same entry points the go-test benchmarks use.
func TestScenarioIngestShort(t *testing.T) {
	s, _ := Get("ingest")
	res, err := Run(s, Options{Iterations: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 1 {
		t.Fatalf("ingest cases = %d, want the one inline case", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.Extra["events/s"] <= 0 || c.Extra[EventsPerOp] != 20000 {
			t.Errorf("case %s extras wrong: %v", c.Name, c.Extra)
		}
	}
	if res.Telemetry == nil || res.Telemetry.Counters["core.events_ingested"] == 0 {
		t.Error("telemetry snapshot lacks pipeline counters")
	}
}

// TestScenarioExplainOverheadShort checks the explain on/off pair
// produces traces on the "on" case only.
func TestScenarioExplainOverheadShort(t *testing.T) {
	s, _ := Get("explain-overhead")
	res, err := Run(s, Options{Iterations: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	off, on := res.Cases[0], res.Cases[1]
	if off.Extra["traces_stored"] != 0 {
		t.Errorf("off case stored traces: %v", off.Extra)
	}
	if on.Extra["traces_stored"] <= 0 {
		t.Errorf("on case stored no traces: %v", on.Extra)
	}
	if on.Extra["reports"] != off.Extra["reports"] {
		t.Errorf("explain changed report count: off=%v on=%v", off.Extra["reports"], on.Extra["reports"])
	}
}

// TestScenarioOpdetectShort checks the detection-only scenario freezes
// snapshots, matches operations, and derives the per-report costs.
func TestScenarioOpdetectShort(t *testing.T) {
	s, _ := Get("opdetect")
	res, err := Run(s, Options{Iterations: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cases[0]
	if c.Extra[ReportsPerOp] <= 0 || c.Extra["matched"] <= 0 || c.Extra["ns/report"] <= 0 {
		t.Errorf("opdetect extras wrong: %v", c.Extra)
	}
	if got := res.Telemetry.Counters["core.opdetect.attempts"]; got != uint64(c.Extra[ReportsPerOp]) {
		t.Errorf("opdetect.attempts = %d, want one per frozen snapshot (%v)", got, c.Extra[ReportsPerOp])
	}
	if res.Telemetry.Counters["core.events_ingested"] != 0 {
		t.Error("opdetect ingested events: the scenario must time detection alone")
	}
}

// TestScenarioRCAShort checks the RCA-only scenario: every report finds
// its one cause, each poll's burst is judged at most twice per node (the
// window's newest sample arrives once, its oldest leaves once), and the
// counters account for every examination.
func TestScenarioRCAShort(t *testing.T) {
	s, _ := Get("rca")
	res, err := Run(s, Options{Iterations: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.8, 0.98, 0.8} {
		c := res.Cases[i]
		if got := c.Extra["windows_reused_share"]; math.Abs(got-want) > 1e-9 || c.Extra["ns/report"] <= 0 {
			t.Errorf("%s: reused share %v, want %v (%v)", c.Name, got, want, c.Extra)
		}
	}
	ctr := res.Telemetry.Counters
	if ctr["rca.windows.judged"] == 0 || (ctr["rca.windows.judged"]+ctr["rca.windows.reused"])%ctr["rca.invocations"] != 0 {
		t.Errorf("judged %d + reused %d is not a whole walk per invocation (%d)",
			ctr["rca.windows.judged"], ctr["rca.windows.reused"], ctr["rca.invocations"])
	}
	if ctr["core.events_ingested"] != 0 {
		t.Error("rca ingested events: the scenario must time Algorithm 3 alone")
	}
}

// TestScenarioChaosSoakShort runs the transport soak scenario once and
// checks the loss accounting rode along. Skipped in -short runs: it
// holds live sockets for a few seconds.
func TestScenarioChaosSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak scenario needs live sockets and a few seconds")
	}
	s, _ := Get("chaos-soak")
	res, err := Run(s, Options{Iterations: 1, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cases[0]
	if c.Extra["delivered/s"] <= 0 {
		t.Errorf("no delivered/s: %v", c.Extra)
	}
	if c.Extra["delivered"]+c.Extra["missing"] != 2500 {
		t.Errorf("loss accounting broken: %v", c.Extra)
	}
}
