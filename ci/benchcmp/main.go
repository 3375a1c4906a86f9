// Command benchcmp is the bench gate's comparator: it diffs a fresh
// `go test -bench` run against the committed baseline (BENCH.txt at the
// repo root), both in Go's benchmark text format, and exits 1 when a
// gated metric moved the wrong way past its tolerance, when a baseline
// benchmark is absent from the fresh run, or when a gated metric a
// baseline benchmark carries is absent from its fresh line.
//
//	benchcmp [-tol metric=fraction,...] [-quiet] BENCH.txt fresh.txt
//
// Gating is direction-aware — ns/op up is bad, events/s down is bad —
// and metrics with no direction (counts such as "reports", "missing")
// are printed, never gated. From a benchmark's "events/op" or
// "reports/op" the comparator derives ns, allocs and B per event / per
// report: the numbers that survive workload scaling. The default
// tolerance is 10 %, where an allocation that crept onto a hot path
// shows up; timing needs the wide per-metric overrides ci/bench_gate.sh
// passes, because baseline and fresh runs come from different machines.
//
// That allocation gate holds on a benchmark's GOMAXPROCS=1 line only.
// On its -2 / -4 siblings (`-cpu 1,2,4`; Go suffixes the name) allocation
// metrics are printed, not gated: under real parallelism how often a
// pooled buffer is reused depends on scheduling — three identical runs
// of BenchmarkFig8cParallel/workers=8-2 spread 10.8 % in B/op against
// 0.0 % for the same case at GOMAXPROCS=1 — so an allocation that crept
// in is caught by the line where the count is exact.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// defaultTolerance is the allowed worsening of a gated metric, as a
// fraction, unless -tol names the metric.
const defaultTolerance = 0.10

// benchmark is one result line: its full name (sub-benchmark path and
// -GOMAXPROCS suffix included) and every "value unit" pair on it, plus
// the derived per-event / per-report costs.
type benchmark struct {
	name    string
	metrics map[string]float64
}

// parse reads Go benchmark text: every line that starts with
// "Benchmark" is `name iterations {value unit}...` and must parse — a
// baseline that silently dropped a line would silently drop its gate.
// Everything else (goos:, pkg:, PASS, ok, log output) is skipped.
func parse(r io.Reader) ([]benchmark, error) {
	var out []benchmark
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, fmt.Errorf("line %d: want `name iterations {value unit}...`, got %d fields: %q", line, len(f), sc.Text())
		}
		if n, err := strconv.Atoi(f[1]); err != nil || n <= 0 {
			return nil, fmt.Errorf("line %d: bad iteration count %q", line, f[1])
		}
		if seen[f[0]] {
			return nil, fmt.Errorf("line %d: %s appears twice (run with -count 1)", line, f[0])
		}
		seen[f[0]] = true
		b := benchmark{name: f[0], metrics: map[string]float64{}}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q for unit %q", line, f[i], f[i+1])
			}
			b.metrics[f[i+1]] = v
		}
		for _, unit := range []string{"event", "report"} {
			n := b.metrics[unit+"s/op"]
			if n <= 0 {
				continue
			}
			for _, per := range []string{"ns", "allocs", "B"} {
				if v, ok := b.metrics[per+"/op"]; ok {
					b.metrics[per+"/"+unit] = v / n
				}
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// direction is +1 where higher is better, -1 where lower is better and
// 0 for an informational unit, which is never gated.
func direction(unit string) int {
	switch unit {
	case "ns/op", "allocs/op", "B/op",
		"ns/event", "allocs/event", "B/event",
		"ns/report", "allocs/report", "B/report":
		return -1
	}
	if strings.HasSuffix(unit, "/s") || unit == "Mbps" {
		return +1
	}
	return 0
}

// gated reports whether unit, on the line of the benchmark called name,
// takes part in regression gating: it has a direction, and it is not an
// allocation metric of a GOMAXPROCS>1 line.
func gated(name, unit string) bool {
	dir := direction(unit)
	if dir == -1 && !strings.HasPrefix(unit, "ns/") {
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 1 {
				return false
			}
		}
	}
	return dir != 0
}

// parseTolerances parses a -tol value like "ns/op=3.0,events/s=0.75"
// into per-metric overrides of defaultTolerance.
func parseTolerances(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad tolerance %q (want metric=fraction)", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad tolerance %q: fraction must be a non-negative number", part)
		}
		out[name] = f
	}
	return out, nil
}

// delta is one metric's movement between baseline and fresh, or — with
// missing set — a baseline benchmark or gated metric the fresh run lacks.
type delta struct {
	bench, metric   string
	baseline, fresh float64
	change          float64 // (fresh-baseline)/baseline
	gated           bool
	regression      bool
	missing         bool
}

func (d delta) String() string {
	mark := " "
	switch {
	case d.missing:
		return fmt.Sprintf("✗ %-44s %-20s missing from the fresh run", d.bench, d.metric)
	case d.regression:
		mark = "✗"
	case d.gated:
		mark = "✓"
	}
	return fmt.Sprintf("%s %-44s %-20s %14.6g → %-14.6g %+7.1f%%",
		mark, d.bench, d.metric, d.baseline, d.fresh, d.change*100)
}

// compare diffs fresh against baseline, benchmark by benchmark in
// baseline order and metric by metric in name order. What the fresh run
// adds is not the gate's business; what it lost is.
func compare(baseline, fresh []benchmark, tol map[string]float64) []delta {
	freshByName := make(map[string]benchmark, len(fresh))
	for _, b := range fresh {
		freshByName[b.name] = b
	}
	var out []delta
	for _, base := range baseline {
		fb, ok := freshByName[base.name]
		if !ok {
			// A vanished benchmark is a coverage regression, not a perf
			// one, but it must fail the gate all the same.
			out = append(out, delta{bench: base.name, metric: "(benchmark)", gated: true, regression: true, missing: true})
			continue
		}
		units := make([]string, 0, len(base.metrics))
		for u := range base.metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			b := base.metrics[u]
			d := delta{bench: base.name, metric: u, baseline: b, gated: gated(base.name, u)}
			f, present := fb.metrics[u]
			if !present {
				if d.gated { // so is a vanished gated metric: its gate went with it
					d.regression, d.missing = true, true
					out = append(out, d)
				}
				continue
			}
			d.fresh = f
			switch {
			case b == 0 && f == 0:
			case b == 0:
				d.change = 1 // appeared from zero: treat as +100%
			default:
				d.change = (f - b) / b
			}
			if d.gated {
				limit, ok := tol[u]
				if !ok {
					limit = defaultTolerance
				}
				d.regression = d.change*float64(-direction(u)) > limit
			}
			out = append(out, d)
		}
	}
	return out
}

func load(path string) ([]benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return bs, nil
}

func main() {
	tolFlag := flag.String("tol", "", "per-metric tolerance overrides (metric=fraction,...); default 0.10")
	quiet := flag.Bool("quiet", false, "print only regressions")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-tol metric=fraction,...] [-quiet] baseline.txt fresh.txt")
		os.Exit(2)
	}
	tol, err := parseTolerances(*tolFlag)
	if err != nil {
		fatal(err)
	}
	baseline, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	regressions := 0
	for _, d := range compare(baseline, fresh, tol) {
		if d.regression {
			regressions++
		} else if *quiet {
			continue
		}
		fmt.Println(d)
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s) past tolerance across %d baseline benchmarks\n", regressions, len(baseline))
		os.Exit(1)
	}
	fmt.Printf("%d baseline benchmarks within tolerance\n", len(baseline))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
