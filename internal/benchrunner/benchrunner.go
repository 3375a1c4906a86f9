// Package benchrunner is GRETEL's scenario-driven performance
// observability layer, modeled on elastic-package's internal/benchrunner
// (a runner plus pluggable reporters). Named scenarios wrap the real
// pipelines — the same entry points the repository's go-test benchmarks
// call, so the two measurement paths cannot drift — and every run
// produces a machine-readable result carrying full provenance: git
// revision, go version, GOMAXPROCS, per-case ns/op, events/s, allocs/op
// and B/op, the process telemetry snapshot, and (with profiling on) the
// top CPU and allocation hotspot frames.
//
// The canonical JSON reporter writes one BENCH_<scenario>.json per run;
// committed at the repo root these files form the repository's perf
// trajectory, and Compare diffs a fresh run against the last committed
// baseline with configurable per-metric tolerances — the CI bench-gate.
package benchrunner

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gretel/internal/telemetry"
)

// Metrics carries the extra, scenario-specific measurements one
// iteration reports (rates like "events/s", informational counts like
// "reports"). The runner merges them with the timing and allocation
// numbers it measures itself.
type Metrics map[string]float64

// EventsPerOp is the reserved metric name a Case reports to tell the
// runner how many pipeline events one iteration processed. The runner
// derives the scale-invariant per-event costs ("ns/event",
// "allocs/event", "B/event") from it — the numbers the regression gate
// compares, because they survive short-mode workload scaling.
const EventsPerOp = "events/op"

// ReportsPerOp is EventsPerOp for cases whose unit of work is a fault
// report rather than an event: the runner derives "ns/report",
// "allocs/report" and "B/report" from it.
const ReportsPerOp = "reports/op"

// Case is one parameterized sub-benchmark of a scenario ("workers=8",
// "fsync=interval"). Run executes exactly one iteration against state the
// scenario's Setup prepared.
type Case struct {
	Name string
	Run  func() (Metrics, error)
}

// Scenario is a named benchmark over the real pipelines: Setup builds
// the workload once (streams, libraries, listeners), Cases returns the
// parameterized sub-benchmarks the runner iterates, Teardown releases
// whatever Setup held.
type Scenario interface {
	Name() string
	Description() string
	Setup(opts Options) error
	Cases() []Case
	Teardown() error
}

// Options configures one scenario run.
type Options struct {
	// Iterations is how many times each case runs (the committed
	// baselines and the CI gate pin this; default 3). The reported ns/op
	// is the fastest iteration — the least-noise estimate, as in
	// benchstat practice — with allocations averaged across all of them.
	Iterations int
	// Short selects the reduced workload scales (CI-sized). Results are
	// tagged with the mode; Compare refuses to diff across modes.
	Short bool
	// Profile captures a CPU profile across the measured iterations and
	// a heap (allocs) profile after them, writes both under ProfileDir,
	// and records the top-3 hotspot frames of each into the result.
	Profile bool
	// ProfileDir is where -profile writes <scenario>.cpu.pprof and
	// <scenario>.heap.pprof (default "bench_profiles").
	ProfileDir string
	// Timestamp overrides the result timestamp (tests pin it for golden
	// comparison); zero means time.Now().UTC().
	Timestamp time.Time
}

func (o *Options) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.ProfileDir == "" {
		o.ProfileDir = "bench_profiles"
	}
}

// CaseResult is one case's aggregated measurement.
type CaseResult struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	// NsPerOp is the wall time of the fastest iteration in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocations per iteration,
	// averaged over all iterations (runtime.MemStats deltas).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Extra holds the case's own metrics (rates, counts) plus the
	// derived per-event costs when the case reported "events/op".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Hotspot is one profile frame: the leaf function and its share of the
// profile's samples — how the PR 5 "~60% of CPU is the MAD sort"
// observation becomes a tracked, diffable number.
type Hotspot struct {
	Function string  `json:"function"`
	FlatPct  float64 `json:"flat_pct"`
}

// ScenarioResult is the canonical per-run record — the BENCH_*.json
// schema. Field order is fixed and all maps marshal with sorted keys,
// so serialization is deterministic; Timestamp and GitRev are excluded
// from the comparison path.
type ScenarioResult struct {
	Schema      int    `json:"schema"`
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	GitRev      string `json:"git_rev"`
	Dirty       bool   `json:"dirty,omitempty"`
	Timestamp   string `json:"timestamp"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Short       bool   `json:"short"`
	Iterations  int    `json:"iterations"`

	Cases []CaseResult `json:"cases"`

	// CPUHotspots and HeapHotspots are the top-3 frames by flat CPU time
	// and flat allocated bytes (present only with Options.Profile).
	CPUHotspots  []Hotspot `json:"cpu_hotspots,omitempty"`
	HeapHotspots []Hotspot `json:"heap_hotspots,omitempty"`

	// Telemetry is the process registry snapshot taken after the run:
	// the pipeline counters and stage latency histograms ride along as
	// evidence for the headline numbers.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// CurrentSchema versions the BENCH_*.json layout.
const CurrentSchema = 1

// Run executes one scenario under opts and returns its result. The
// default telemetry registry is reset first so the embedded snapshot
// holds exactly this run's counters.
func Run(s Scenario, opts Options) (*ScenarioResult, error) {
	opts.defaults()
	telemetry.Reset()
	if err := s.Setup(opts); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", s.Name(), err)
	}
	defer s.Teardown()

	res := &ScenarioResult{
		Schema:      CurrentSchema,
		Scenario:    s.Name(),
		Description: s.Description(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Short:       opts.Short,
		Iterations:  opts.Iterations,
	}
	res.GitRev, res.Dirty = buildRev()
	ts := opts.Timestamp
	if ts.IsZero() {
		ts = time.Now().UTC()
	}
	res.Timestamp = ts.UTC().Format(time.RFC3339)

	var stopCPU func() error
	cpuPath := filepath.Join(opts.ProfileDir, s.Name()+".cpu.pprof")
	heapPath := filepath.Join(opts.ProfileDir, s.Name()+".heap.pprof")
	if opts.Profile {
		var err error
		if stopCPU, err = startCPUProfile(cpuPath); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", s.Name(), err)
		}
	}

	for _, c := range s.Cases() {
		cr, err := runCase(c, opts.Iterations)
		if err != nil {
			if stopCPU != nil {
				stopCPU()
			}
			return nil, fmt.Errorf("%s/%s: %w", s.Name(), c.Name, err)
		}
		res.Cases = append(res.Cases, cr)
	}

	if opts.Profile {
		if err := stopCPU(); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", s.Name(), err)
		}
		if hs, err := TopHotspots(cpuPath, "cpu", 3); err == nil {
			res.CPUHotspots = hs
		} else {
			return nil, fmt.Errorf("%s: cpu hotspots: %w", s.Name(), err)
		}
		if err := writeHeapProfile(heapPath); err != nil {
			return nil, fmt.Errorf("%s: heap profile: %w", s.Name(), err)
		}
		if hs, err := TopHotspots(heapPath, "alloc_space", 3); err == nil {
			res.HeapHotspots = hs
		} else {
			return nil, fmt.Errorf("%s: heap hotspots: %w", s.Name(), err)
		}
	}

	snap := telemetry.Snap()
	res.Telemetry = &snap
	return res, nil
}

// runCase iterates one case, keeping the fastest iteration's wall time
// and extras and averaging allocations over all iterations.
func runCase(c Case, iters int) (CaseResult, error) {
	cr := CaseResult{Name: c.Name, Iterations: iters}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	best := time.Duration(-1)
	var bestExtra Metrics
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		extra, err := c.Run()
		d := time.Since(t0)
		if err != nil {
			return cr, err
		}
		if best < 0 || d < best {
			best, bestExtra = d, extra
		}
	}
	runtime.ReadMemStats(&m1)

	cr.NsPerOp = float64(best.Nanoseconds())
	cr.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
	cr.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
	if len(bestExtra) > 0 {
		cr.Extra = make(map[string]float64, len(bestExtra)+3)
		for k, v := range bestExtra {
			cr.Extra[k] = v
		}
		for _, unit := range []string{"event", "report"} {
			if n := cr.Extra[unit+"s/op"]; n > 0 {
				cr.Extra["ns/"+unit] = cr.NsPerOp / n
				cr.Extra["allocs/"+unit] = cr.AllocsPerOp / n
				cr.Extra["B/"+unit] = cr.BytesPerOp / n
			}
		}
	}
	return cr, nil
}

// buildRev resolves the git revision for result provenance: the VCS
// stamp the go tool bakes into binaries when available, otherwise (test
// binaries, `go run`) one `git rev-parse` at first use.
var (
	revOnce  sync.Once
	revValue string
	revDirty bool
)

func buildRev() (string, bool) {
	revOnce.Do(func() {
		p := telemetry.Prov()
		revValue, revDirty = p.GitRev, p.Dirty
		if revValue != "unknown" {
			return
		}
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			if rev := strings.TrimSpace(string(out)); rev != "" {
				revValue = rev
			}
		}
	})
	return revValue, revDirty
}

// registry holds the first-class scenarios in display order.
var (
	regMu    sync.Mutex
	regOrder []string
	reg      = map[string]func() Scenario{}
)

// Register adds a scenario constructor under its name; later
// registrations of the same name replace earlier ones.
func Register(name string, mk func() Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; !dup {
		regOrder = append(regOrder, name)
	}
	reg[name] = mk
}

// Names lists the registered scenarios in registration order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// Get builds the named scenario.
func Get(name string) (Scenario, bool) {
	regMu.Lock()
	mk := reg[name]
	regMu.Unlock()
	if mk == nil {
		return nil, false
	}
	return mk(), true
}

// Resolve expands a -scenario argument ("all", one name, or a
// comma-separated list) into scenario names, rejecting unknowns.
func Resolve(arg string) ([]string, error) {
	if arg == "" || arg == "all" {
		return Names(), nil
	}
	var out []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := reg[name]; !ok {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

// sortHotspots orders hotspots by flat share descending, name ascending
// on ties — the deterministic order the JSON records.
func sortHotspots(hs []Hotspot) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].FlatPct != hs[j].FlatPct {
			return hs[i].FlatPct > hs[j].FlatPct
		}
		return hs[i].Function < hs[j].Function
	})
}
