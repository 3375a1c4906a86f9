// Regression gating: diff a fresh scenario run against the last
// committed BENCH_<scenario>.json baseline. Direction-aware — ns/op up
// is bad, events/s down is bad — with a configurable default tolerance
// and per-metric overrides, because timing metrics need slack across
// machines while allocation counts barely move between identical builds.

package benchrunner

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Tolerance bounds how far a gated metric may move for the worse before
// Compare flags a regression.
type Tolerance struct {
	// Default is the allowed worsening as a fraction (0.10 = 10%).
	Default float64
	// PerMetric overrides the default for named metrics ("ns_per_op",
	// "events/s", ...).
	PerMetric map[string]float64
}

// DefaultTolerance is the CI gate's baseline policy: 10%.
const DefaultTolerance = 0.10

func (t Tolerance) forMetric(name string) float64 {
	if v, ok := t.PerMetric[name]; ok {
		return v
	}
	if t.Default > 0 {
		return t.Default
	}
	return DefaultTolerance
}

// ParseTolerances parses a "-tol" flag value like
// "ns_per_op=0.5,events/s=0.3" into per-metric overrides.
func ParseTolerances(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]float64{}
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

// metric directions: +1 higher is better, -1 lower is better, 0
// informational (never gated).
func metricDirection(name string) int {
	switch name {
	case "ns_per_op", "allocs_per_op", "bytes_per_op",
		"ns/event", "allocs/event", "B/event",
		"ns/report", "allocs/report", "B/report":
		return -1
	}
	if strings.HasSuffix(name, "/s") || name == "Mbps" {
		return +1
	}
	return 0
}

// Delta is one metric's movement between baseline and fresh.
type Delta struct {
	Case   string
	Metric string
	// Baseline and Fresh are the two values; Change is the signed
	// fraction (fresh-baseline)/baseline.
	Baseline, Fresh, Change float64
	// Gated reports whether the metric has a direction and participates
	// in regression gating.
	Gated bool
	// Regression is set when a gated metric moved the wrong way past its
	// tolerance.
	Regression bool
}

// String renders one delta line.
func (d Delta) String() string {
	mark := " "
	switch {
	case d.Regression:
		mark = "✗"
	case d.Gated:
		mark = "✓"
	}
	return fmt.Sprintf("%s %-16s %-14s %14.6g → %-14.6g %+7.1f%%",
		mark, d.Case, d.Metric, d.Baseline, d.Fresh, d.Change*100)
}

// Compare diffs fresh against baseline case by case. Timestamp, git
// revision, and telemetry are provenance, not comparison inputs. It
// refuses to diff across workload modes (short vs full): per-run
// absolute numbers are meaningless across scales, and the per-event
// derived metrics only fix part of that.
func Compare(baseline, fresh *ScenarioResult, tol Tolerance) ([]Delta, error) {
	if baseline.Scenario != fresh.Scenario {
		return nil, fmt.Errorf("scenario mismatch: baseline %q vs fresh %q", baseline.Scenario, fresh.Scenario)
	}
	if baseline.Short != fresh.Short {
		return nil, fmt.Errorf("%s: workload mode mismatch (baseline short=%v, fresh short=%v) — regenerate the baseline in the same mode",
			baseline.Scenario, baseline.Short, fresh.Short)
	}

	freshByName := make(map[string]CaseResult, len(fresh.Cases))
	for _, c := range fresh.Cases {
		freshByName[c.Name] = c
	}

	var out []Delta
	for _, bc := range baseline.Cases {
		fc, ok := freshByName[bc.Name]
		if !ok {
			// A vanished case is a coverage regression, not a perf one,
			// but it must fail the gate all the same.
			out = append(out, Delta{Case: bc.Name, Metric: "(case missing)", Gated: true, Regression: true})
			continue
		}
		out = append(out, diffCase(bc, fc, tol)...)
	}
	return out, nil
}

func diffCase(base, fresh CaseResult, tol Tolerance) []Delta {
	var out []Delta
	add := func(metric string, b, f float64) {
		dir := metricDirection(metric)
		d := Delta{Case: base.Name, Metric: metric, Baseline: b, Fresh: f, Gated: dir != 0}
		switch {
		case b == 0 && f == 0:
			d.Change = 0
		case b == 0:
			d.Change = 1 // appeared from zero: treat as +100%
		default:
			d.Change = (f - b) / b
		}
		if d.Gated {
			worse := d.Change
			if dir > 0 {
				worse = -d.Change
			}
			d.Regression = worse > tol.forMetric(metric)
		}
		out = append(out, d)
	}

	add("ns_per_op", base.NsPerOp, fresh.NsPerOp)
	add("allocs_per_op", base.AllocsPerOp, fresh.AllocsPerOp)
	add("bytes_per_op", base.BytesPerOp, fresh.BytesPerOp)

	names := make([]string, 0, len(base.Extra))
	for k := range base.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if f, ok := fresh.Extra[k]; ok {
			add(k, base.Extra[k], f)
		}
	}
	return out
}

// Regressions filters the deltas down to failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}
