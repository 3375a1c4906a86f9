package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/scenario"
	"gretel/internal/tempest"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

// PrecisionCell aggregates one parallel-workload run.
type PrecisionCell struct {
	Parallel int
	Faults   int
	Reports  int
	// AvgTheta is the mean precision θ = (N-n)/(N-1) over reports.
	AvgTheta float64
	// AvgMatched is the mean candidate-set size n after snapshot matching.
	AvgMatched float64
	// AvgByErrorOnly is the mean count of operations containing the error
	// API (no snapshot) — Fig 7b/7c's "With API error" series.
	AvgByErrorOnly float64
	// HitRate is the fraction of reports whose candidate set contains the
	// ground-truth operation.
	HitRate float64
	// AvgBeta is the mean final context-buffer size.
	AvgBeta float64
	// MaxReportDelay is the worst fault-to-report virtual latency (§7.4.1:
	// the paper saw <2 s at 400 concurrent operations).
	MaxReportDelay time.Duration
}

// chooseFaultAPI picks the API to fail inside an operation: a
// state-change REST step past the midpoint (the paper injected erroneous
// REST APIs from the Compute and Network categories). APIs occurring
// exactly once in the operation are preferred so the failure point
// coincides with the fingerprint-truncation point (which cuts at the
// API's last occurrence).
func chooseFaultAPI(op *openstack.Operation) (trace.API, bool) {
	counts := map[trace.API]int{}
	for _, s := range op.Steps {
		if !s.Noise {
			counts[s.API]++
		}
	}
	var idxs, uniqueIdxs []int
	for i, s := range op.Steps {
		if !s.Noise && s.API.Kind == trace.REST && s.API.StateChanging() {
			idxs = append(idxs, i)
			if counts[s.API] == 1 {
				uniqueIdxs = append(uniqueIdxs, i)
			}
		}
	}
	if len(uniqueIdxs) > 0 {
		idxs = uniqueIdxs
	}
	if len(idxs) == 0 {
		return trace.API{}, false
	}
	return op.Steps[idxs[len(idxs)*3/5]].API, true
}

// ParallelRun describes one precision experiment.
type ParallelRun struct {
	Catalog *tempest.Catalog
	Library *fingerprint.Library
	// Parallel is the number of concurrent non-faulty tests.
	Parallel int
	// FaultTests are the catalog tests to run with an injected fault. A
	// test may repeat (Fig 8a runs 16 instances of the same operation).
	FaultTests []*tempest.Test
	Analyzer   core.Config
	Seed       int64
	// CorrelationIDs enables the §5.3.1 correlation-identifier extension
	// on both the deployment (request-id stamping) and the analyzer
	// (corr-id-filtered matching).
	CorrelationIDs bool
	// TraceStore, when non-nil, turns on explain mode: every report's
	// evidence trace is recorded into it.
	TraceStore *tracestore.Store
	// T is the α time horizon in seconds. Per §5.3.1, "a bigger value of
	// t ensures that the sliding window is big enough to determine the
	// largest operation": it must cover a typical operation's duration.
	// Zero selects a default matched to the workload pacing below.
	T float64
}

// Run executes the parallel workload and aggregates the precision cell.
func (pr *ParallelRun) Run() PrecisionCell {
	return summarize(pr.run(), pr.Parallel, len(pr.FaultTests))
}

// run executes the parallel workload and returns the finished harness.
func (pr *ParallelRun) run() *scenario.Harness {
	cfg := pr.Analyzer
	cfg.UseCorrelationIDs = pr.CorrelationIDs
	if cfg.Alpha == 0 {
		// α = 2·max(FPmax, Prate·t). The paper fixes α (768) across all
		// parallelism levels; here Prate·t is anchored to the 100-test
		// baseline (each op emits ~16 messages/s at this pacing), so α
		// stays constant as parallelism grows, exactly as in §7.
		cfg.Prate, cfg.T = 100*16, pr.T
		if cfg.T == 0 {
			cfg.T = 10
		}
	}
	// Tests pace like Tempest's: steps separated by fractions of a
	// second, so a typical operation completes in seconds and its
	// fingerprint fits inside the sliding window.
	h := scenario.New(scenario.Options{
		Deploy: openstack.Config{
			Seed:           pr.Seed,
			ThinkMin:       50 * time.Millisecond,
			ThinkMax:       150 * time.Millisecond,
			CorrelationIDs: pr.CorrelationIDs,
		},
		Analyzer: cfg,
		Library:  pr.Library,
	})
	h.Analyzer.SetExplain(pr.TraceStore)

	// Sustain `Parallel` concurrently executing tests.
	stopPool := tempest.SustainPool(h.D, pr.Catalog, pr.Parallel, rand.New(rand.NewSource(pr.Seed)))

	// Reach steady state, then stagger the faulty instances through the
	// middle of the run so each has full past and future context.
	warmup := 60 * time.Second
	spacing := 15 * time.Second
	for i, test := range pr.FaultTests {
		api, ok := chooseFaultAPI(test.Op)
		if !ok {
			continue
		}
		h.D.Sim.After(warmup+time.Duration(i)*spacing, func() {
			inst := h.D.Start(test.Op, nil)
			h.Plan.Add(faults.Rule{
				OpID: inst.ID, API: api, StepIndex: -1, Once: true,
				Outcome: openstack.Outcome{Status: 500,
					ErrText: "Internal Server Error: injected fault in " + test.Op.Name},
			})
		})
	}

	// Run long enough for every fault's snapshot to fill, then drain.
	tail := 2 * time.Minute
	h.Run(warmup + time.Duration(len(pr.FaultTests))*spacing + tail)
	stopPool()
	h.Run(time.Minute)
	h.Finish()
	return h
}

// summarize grades a finished run's reports against the harness's
// ground truth.
func summarize(h *scenario.Harness, parallel, faultCount int) PrecisionCell {
	cell := PrecisionCell{Parallel: parallel, Faults: faultCount}
	reps := h.Reports()
	cell.Reports = len(reps)
	if len(reps) == 0 {
		return cell
	}
	var theta, matched, byErr, beta float64
	hits := 0
	for _, rep := range reps {
		theta += rep.Precision
		matched += float64(len(rep.Candidates))
		byErr += float64(rep.CandidatesByErrorOnly)
		beta += float64(rep.Beta)
		if h.Hit(rep) {
			hits++
		}
		if rep.ReportDelay > cell.MaxReportDelay {
			cell.MaxReportDelay = rep.ReportDelay
		}
	}
	n := float64(len(reps))
	cell.AvgTheta = theta / n
	cell.AvgMatched = matched / n
	cell.AvgByErrorOnly = byErr / n
	cell.HitRate = float64(hits) / n
	cell.AvgBeta = beta / n
	return cell
}

// pickFaultTests selects fault candidates from the Compute and Network
// categories (over 80% of REST invocations in the suite, §7.3).
func pickFaultTests(c *tempest.Catalog, n int, rng *rand.Rand) []*tempest.Test {
	pool := append(append([]*tempest.Test{}, c.ByCategory[openstack.Compute]...),
		c.ByCategory[openstack.Network]...)
	out := make([]*tempest.Test, 0, n)
	for len(out) < n {
		t := pool[rng.Intn(len(pool))]
		if _, ok := chooseFaultAPI(t.Op); ok {
			out = append(out, t)
		}
	}
	return out
}

// pickFaultTestsDeterministic selects the first n fault-capable Compute
// tests (for tests that need stable inputs).
func pickFaultTestsDeterministic(c *tempest.Catalog, n int) []*tempest.Test {
	out := make([]*tempest.Test, 0, n)
	for _, t := range c.ByCategory[openstack.Compute] {
		if _, ok := chooseFaultAPI(t.Op); ok {
			out = append(out, t)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Fig7a sweeps parallelism × injected-fault count and reports precision.
func Fig7a(seed int64, parallels, faultCounts []int) []PrecisionCell {
	c := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(c)
	var out []PrecisionCell
	for _, p := range parallels {
		for _, f := range faultCounts {
			rng := rand.New(rand.NewSource(seed ^ int64(p*1000+f)))
			run := &ParallelRun{
				Catalog: c, Library: lib, Parallel: p,
				FaultTests: pickFaultTests(c, f, rng),
				Seed:       seed ^ int64(p*7+f*13),
			}
			out = append(out, run.Run())
		}
	}
	return out
}

// Fig7c compares matching with and without RPC symbols in fingerprints
// (100 concurrent tests, 8 faults).
func Fig7c(seed int64) (withRPC, withoutRPC PrecisionCell) {
	c := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(c)
	rng := rand.New(rand.NewSource(seed ^ 42))
	faultTests := pickFaultTests(c, 8, rng)

	mk := func(disablePrune bool) PrecisionCell {
		run := &ParallelRun{
			Catalog: c, Library: lib, Parallel: 100,
			FaultTests: faultTests,
			Analyzer:   core.Config{DisablePruneRPC: disablePrune},
			Seed:       seed ^ 0xf17c,
		}
		return run.Run()
	}
	// "With RPC" keeps RPC symbols in the match (pruning disabled).
	return mk(true), mk(false)
}

// Fig8a runs 16 identical concurrent faulty operations against growing
// background concurrency and reports the average matched-operation count.
func Fig8a(seed int64, parallels []int) []PrecisionCell {
	c := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(c)
	var out []PrecisionCell
	for _, p := range parallels {
		out = append(out, fig8aRun(seed, c, lib, p, 16).Run())
	}
	return out
}

// fig8aRun is Fig 8a's run at one parallelism: n instances of one Compute
// test with a usable fault point, each failing once.
func fig8aRun(seed int64, c *tempest.Catalog, lib *fingerprint.Library, parallel, n int) *ParallelRun {
	one := pickFaultTests(c, 1, rand.New(rand.NewSource(seed^0x8a)))[0]
	faultTests := make([]*tempest.Test, n)
	for i := range faultTests {
		faultTests[i] = one
	}
	return &ParallelRun{
		Catalog: c, Library: lib, Parallel: parallel,
		FaultTests: faultTests,
		Seed:       seed ^ int64(parallel)*31,
	}
}

// FormatPrecision renders precision cells as a table.
func FormatPrecision(cells []PrecisionCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %7s %8s %10s %9s %11s %8s %9s %12s\n",
		"parallel", "faults", "reports", "precision", "matched", "api-only", "hit", "beta", "max-delay")
	for _, c := range cells {
		fmt.Fprintf(&b, "%8d %7d %8d %9.2f%% %9.2f %11.2f %7.0f%% %9.0f %12s\n",
			c.Parallel, c.Faults, c.Reports, c.AvgTheta*100, c.AvgMatched,
			c.AvgByErrorOnly, c.HitRate*100, c.AvgBeta, c.MaxReportDelay.Round(time.Millisecond))
	}
	return b.String()
}
