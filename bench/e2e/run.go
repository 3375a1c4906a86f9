// Package e2e is the wire→report benchmark: it records a simulated
// OpenStack packet tape at set-up, drives the unmodified product packages
// through their public functions on six workloads, checks every lap's
// verdicts against an in-process reference, and reports end-to-end
// metrics (tracing off) or per-layer metrics (a traced run plus
// stage-isolated runs). See ../README.md.
package e2e

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"gretel/bench/loadgen"
)

// MetricDef names one metric; BENCHMARK.json lists the same names.
type MetricDef struct{ Name, Unit string }

// EndToEnd is every end-to-end metric, printed by an untraced run.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_us_per_event", "us"},
	{"allocs_per_event", "count"},
	{"alloc_bytes_per_event", "B"},
	{"retained_heap_mb", "MB"},
	{"report_lag_p50_ms", "ms"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed laps run in total.
	Seconds float64
	Trace   bool
	Sizes   Sizes
	// SetupRepeats is how many times the run sets up; setup_s is the
	// median, so one slow simulation does not read as a set-up
	// regression. 0 means 3.
	SetupRepeats int
	// WorkDir holds the run's WAL directories and is removed afterwards;
	// OutDir receives the trace file.
	WorkDir, OutDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// paced-wire kept up when a lap ended within pacedTolerance of its
// schedule's length (plus pacedGrace for tearing the pipeline down). A
// lap that did not is noted in the log and shows in events_per_s and
// report_lag_p50_ms; it is a slow run, not a wrong one.
const (
	pacedTolerance = 0.01
	pacedGrace     = 50 * time.Millisecond
)

// Run sets up, warms up, and then measures (or, with opt.Trace, traces)
// and verifies one workload.
func Run(opt Options) (*Result, error) {
	s, err := prepare(opt)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if opt.Trace {
		return s.trace()
	}
	return s.measure()
}

// session is one run after set-up and warm-up.
type session struct {
	opt    Options
	procs  int
	setups []float64
	r      *runner
}

func (s *session) close() { os.RemoveAll(s.r.workDir) }

// prepare builds the inputs and their reference SetupRepeats times and
// runs the warm-up lap.
func prepare(opt Options) (*session, error) {
	// One generator goroutine and one TCP stream leave little for more
	// than four processors to do; fixing the cap keeps runs comparable.
	s := &session{opt: opt, procs: min(runtime.NumCPU(), 4)}
	runtime.GOMAXPROCS(s.procs)
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(opt.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	s.r = &runner{workload: opt.Workload, workDir: workDir}
	if err := s.setUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) setUp() error {
	opt, r := s.opt, s.r
	repeats := opt.SetupRepeats
	if repeats == 0 {
		repeats = 3
	}
	s.setups = make([]float64, repeats)
	for i := range s.setups {
		r.in = nil // let the previous inputs go before building the next
		runtime.GC()
		t0 := time.Now()
		var err error
		if r.in, err = BuildInputs(opt.Seed, opt.Sizes, opt.Workload, r.workDir, opt.Trace); err != nil {
			return err
		}
		if r.ref, err = r.in.reference(opt.Workload); err != nil {
			return err
		}
		s.setups[i] = time.Since(t0).Seconds()
	}
	in, ref := r.in, r.ref
	if ref.Reports == 0 || ref.Faults == 0 {
		return fmt.Errorf("%s: the reference produced %d reports for %d faults; nothing to verify", opt.Workload, ref.Reports, ref.Faults)
	}
	fmt.Fprintf(opt.Log, "workload %s seed %d gomaxprocs %d\n", opt.Workload, opt.Seed, s.procs)
	if in.Tape != nil {
		fmt.Fprintf(opt.Log, "tape: %d packets, %d events, %d MB payload, %d state updates, %d faults injected\n",
			in.Tape.Len(), in.TapeEvents, in.Tape.PayloadBytes()>>20, len(in.Tape.States()), len(in.injected))
	}
	fmt.Fprintf(opt.Log, "reference: %d reports, %d of %d faults hit, digest %s\n", ref.Reports, ref.Hits, ref.Faults, ref.Digest[:16])
	_, err := r.lap(nil) // warm-up: untimed, but still verified
	return err
}

// trace is the traced run: it prints the per-layer metrics.
func (s *session) trace() (*Result, error) {
	layers, err := s.r.perLayer(s.opt, s.procs)
	if err != nil {
		return nil, err
	}
	res := &Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{}}
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Metric{layers[d.Name], d.Unit}
	}
	printMetrics(s.opt.Log, PerLayer, res.Metrics)
	return res, nil
}

// measure runs timed laps, tracing off, for opt.Seconds and prints the
// end-to-end metrics, each the median over the laps.
func (s *session) measure() (*Result, error) {
	opt, r, ref := s.opt, s.r, s.r.ref
	var laps []*lap
	for start := time.Now(); len(laps) < 2 || time.Since(start).Seconds() < opt.Seconds; {
		l, err := r.lap(nil)
		if err != nil {
			return nil, err
		}
		laps = append(laps, l)
	}

	med := func(f func(*lap) float64) float64 {
		vals := make([]float64, len(laps))
		for i, l := range laps {
			vals[i] = f(l)
		}
		return loadgen.Median(vals)
	}
	res := &Result{Metrics: map[string]Metric{}}
	// The report lag is the median lap's median, not the median of all
	// laps pooled: one lap that a busy host stalled then costs nothing,
	// where pooled it would shift the median by a third of the samples.
	lagP50 := make([]float64, len(laps))
	reports, genLate := 0, 0.0
	for i, l := range laps {
		var err error
		if lagP50[i], err = loadgen.Percentile(l.LagsMs, 0.50); err != nil {
			return nil, fmt.Errorf("report lag: %w", err)
		}
		reports += len(l.LagsMs)
		genLate = max(genLate, l.GenLateMs)
		res.Attempted += l.Offered + l.V.Faults
		// A fault counts as failed only when this lap missed it and the
		// in-process reference did not: what the algorithm itself cannot
		// localise is reported as missed_fault_share, not as a failure.
		res.Failed += l.Offered - l.Ingested + max(l.V.missed()-ref.missed(), 0)
	}
	last := laps[len(laps)-1]
	values := map[string]float64{
		"setup_s":               loadgen.Median(s.setups),
		"events_per_s":          med(func(l *lap) float64 { return float64(l.Timed) / l.Wall.Seconds() }),
		"cpu_us_per_event":      med(func(l *lap) float64 { return float64(l.CPU) / 1e3 / float64(l.Timed) }),
		"allocs_per_event":      med(func(l *lap) float64 { return float64(l.Mallocs) / float64(l.Timed) }),
		"alloc_bytes_per_event": med(func(l *lap) float64 { return float64(l.Bytes) / float64(l.Timed) }),
		"retained_heap_mb":      med(func(l *lap) float64 { return l.RetainedMB }),
		"report_lag_p50_ms":     loadgen.Median(lagP50),
	}
	for _, d := range EndToEnd {
		res.Metrics[d.Name] = Metric{values[d.Name], d.Unit}
	}
	printMetrics(opt.Log, EndToEnd, res.Metrics)
	fmt.Fprintf(opt.Log, "laps %d; report lag over %d reports; loss_share %.6f; missed_fault_share %.4f (reference %.4f)\n",
		len(laps), reports, float64(res.Failed)/float64(res.Attempted),
		float64(last.V.missed())/float64(last.V.Faults), float64(ref.missed())/float64(ref.Faults))
	if opt.Workload == "paced-wire" {
		fmt.Fprintf(opt.Log, "paced-wire: offered %.0f events/s, achieved %.0f, gen_late_ms_max %.3f\n",
			opt.Sizes.PacedRate, values["events_per_s"], genLate)
		for i, l := range laps {
			if limit := time.Duration(float64(l.Schedule)*(1+pacedTolerance)) + pacedGrace; l.Wall > limit {
				fmt.Fprintf(opt.Log, "paced-wire: lap %d took %v for a %v schedule: the pipeline did not keep up\n", i+1, l.Wall, l.Schedule)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func printMetrics(w io.Writer, defs []MetricDef, m map[string]Metric) {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
