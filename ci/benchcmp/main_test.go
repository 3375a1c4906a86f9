package main

import (
	"strings"
	"testing"
)

// baselineText is a run in the shape `go test -bench` prints: header
// lines, result lines with custom units, log noise, the trailer.
const baselineText = `goos: linux
goarch: amd64
pkg: gretel
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
2026/10/03 04:11:03 agent: corrupt bytes from 127.0.0.1:34302: skipped 107 resynchronizing
BenchmarkIngest/inline         	       3	1000000000 ns/op	     20000 events/op	    600000 events/s	        12.00 reports	   64000 B/op	    1000 allocs/op
BenchmarkFig8cParallel/workers=4-2 	       3	2000000000 ns/op	     20000 events/op	    300000 events/s	  128000 B/op	    2000 allocs/op
BenchmarkOpdetect/inline       	       3	  15000000 ns/op	       638.0 matched	        55.00 reports/op	   58240 B/op	     149 allocs/op
PASS
ok  	gretel	12.345s
`

func mustParse(t *testing.T, text string) []benchmark {
	t.Helper()
	bs, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// diff compares baselineText against itself after edit, at the default
// tolerance plus overrides, and returns the regressions by
// "benchmark metric".
func diff(t *testing.T, tol map[string]float64, edit func(string) string) (all []delta, regs map[string]bool) {
	t.Helper()
	all = compare(mustParse(t, baselineText), mustParse(t, edit(baselineText)), tol)
	regs = map[string]bool{}
	for _, d := range all {
		if d.regression {
			regs[d.bench+" "+d.metric] = true
		}
	}
	return all, regs
}

func replacer(pairs ...string) func(string) string {
	return func(s string) string {
		for i := 0; i < len(pairs); i += 2 {
			if !strings.Contains(s, pairs[i]) {
				panic("test edit does not apply: " + pairs[i])
			}
			s = strings.Replace(s, pairs[i], pairs[i+1], 1)
		}
		return s
	}
}

func TestParseDerivesPerEventAndPerReport(t *testing.T) {
	bs := mustParse(t, baselineText)
	if len(bs) != 3 || bs[1].name != "BenchmarkFig8cParallel/workers=4-2" {
		t.Fatalf("parsed %+v", bs)
	}
	for unit, want := range map[string]float64{
		"ns/op": 1e9, "events/op": 20000, "reports": 12,
		"ns/event": 50000, "allocs/event": 0.05, "B/event": 3.2,
	} {
		if got := bs[0].metrics[unit]; got != want {
			t.Errorf("ingest %s = %v, want %v", unit, got, want)
		}
	}
	if got, want := bs[2].metrics["ns/report"], 15000000/55.0; got != want {
		t.Errorf("opdetect ns/report = %v, want %v", got, want)
	}
	if _, ok := bs[2].metrics["ns/event"]; ok {
		t.Error("opdetect reports no events/op yet has a per-event cost")
	}
}

func TestParseMalformedLine(t *testing.T) {
	for name, line := range map[string]string{
		"name only":       "BenchmarkIngest/inline",
		"no metrics":      "BenchmarkIngest/inline 3",
		"value sans unit": "BenchmarkIngest/inline 3 100 ns/op 20000",
		"iterations":      "BenchmarkIngest/inline three 100 ns/op",
		"zero iterations": "BenchmarkIngest/inline 0 100 ns/op",
		"value":           "BenchmarkIngest/inline 3 fast ns/op",
		"torn by a log":   "BenchmarkIngest/inline 2026/10/03 04:11:03 agent: corrupt bytes",
		"duplicate":       "BenchmarkIngest/inline 3 100 ns/op\nBenchmarkIngest/inline 3 100 ns/op",
	} {
		if bs, err := parse(strings.NewReader("pkg: gretel\n" + line + "\nPASS\n")); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, line, bs)
		}
	}
	if bs, err := parse(strings.NewReader("PASS\nok  \tgretel\t0.1s\n--- BENCH: BenchmarkX\n")); err != nil || len(bs) != 0 {
		t.Errorf("non-benchmark lines: %+v, %v", bs, err)
	}
}

func TestUnitDirection(t *testing.T) {
	for unit, want := range map[string]int{
		"ns/op": -1, "allocs/op": -1, "B/op": -1,
		"ns/event": -1, "allocs/event": -1, "B/event": -1,
		"ns/report": -1, "allocs/report": -1, "B/report": -1,
		"events/s": +1, "delivered/s": +1, "MB/s": +1, "Mbps": +1,
		"events/op": 0, "reports/op": 0, "reports": 0, "missing": 0, "dups": 0,
		"windows_reused_share": 0, "disk-B/event": 0, "fpmax": 0,
	} {
		if got := direction(unit); got != want {
			t.Errorf("direction(%q) = %d, want %d", unit, got, want)
		}
	}
}

// TestAllocationGateIsTheSingleProcLine: on a -cpu >1 line allocation
// metrics are printed, not gated (timing still is); a name whose last
// dash is not followed by a bare number is a GOMAXPROCS=1 line.
func TestAllocationGateIsTheSingleProcLine(t *testing.T) {
	for _, tc := range []struct {
		name, unit string
		want       bool
	}{
		{"BenchmarkFig8cParallel/workers=4-2", "B/op", false},
		{"BenchmarkFig8cParallel/workers=4-2", "allocs/event", false},
		{"BenchmarkFig8cParallel/workers=4-2", "ns/op", true},
		{"BenchmarkFig8cParallel/workers=4-2", "events/s", true},
		{"BenchmarkFig8cParallel/workers=4-2", "reports", false},
		{"BenchmarkFig8cParallel/workers=4", "B/op", true},
		{"BenchmarkRCA/explain-reports-per-poll=10", "allocs/report", true},
		{"BenchmarkIngest/inline", "allocs/op", true},
	} {
		if got := gated(tc.name, tc.unit); got != tc.want {
			t.Errorf("gated(%q, %q) = %v, want %v", tc.name, tc.unit, got, tc.want)
		}
	}
	_, regs := diff(t, nil, replacer("128000 B/op\t    2000 allocs/op", "256000 B/op\t    4000 allocs/op"))
	if len(regs) != 0 {
		t.Fatalf("allocation metrics of a -2 line gated: %v", regs)
	}
	_, regs = diff(t, nil, replacer("64000 B/op\t    1000 allocs/op", "128000 B/op\t    2000 allocs/op"))
	if len(regs) != 4 {
		t.Fatalf("doubled allocations on a GOMAXPROCS=1 line flagged %v, want B/op, allocs/op and both per-event forms", regs)
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	// The synthetic 2× regression: wall time doubles, throughput halves.
	all, regs := diff(t, nil, replacer("1000000000 ns/op", "2000000000 ns/op", "600000 events/s", "300000 events/s"))
	for _, want := range []string{"ns/op", "events/s", "ns/event"} {
		if !regs["BenchmarkIngest/inline "+want] {
			t.Errorf("%s not flagged", want)
		}
		delete(regs, "BenchmarkIngest/inline "+want)
	}
	if len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	for _, d := range all {
		if d.regression && !strings.Contains(d.String(), "✗") {
			t.Errorf("regression line lacks mark: %q", d)
		}
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	// 5 % worse everywhere: inside the default 10 % gate.
	_, regs := diff(t, nil, replacer("1000000000 ns/op", "1050000000 ns/op", "600000 events/s", "570000 events/s", "1000 allocs/op", "1050 allocs/op"))
	if len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}
}

func TestCompareImprovementNeverFlags(t *testing.T) {
	_, regs := diff(t, nil, replacer("1000000000 ns/op", "300000000 ns/op", "600000 events/s", "1800000 events/s"))
	if len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareInformationalMetricsNotGated(t *testing.T) {
	// "reports" has no direction: a big move must not gate, nor its loss.
	for _, edit := range []func(string) string{
		replacer("12.00 reports", "999.0 reports"),
		replacer("\t        12.00 reports", ""),
	} {
		all, regs := diff(t, nil, edit)
		if len(regs) != 0 {
			t.Fatalf("informational metric gated: %v", regs)
		}
		for _, d := range all {
			if d.metric == "reports" && d.gated {
				t.Fatalf("informational metric gated: %+v", d)
			}
		}
	}
}

func TestComparePerMetricToleranceOverride(t *testing.T) {
	slower := replacer("1000000000 ns/op", "1500000000 ns/op") // +50 %
	if _, regs := diff(t, nil, slower); !regs["BenchmarkIngest/inline ns/op"] || !regs["BenchmarkIngest/inline ns/event"] {
		t.Fatalf("+50%% ns/op not flagged at 10%%: %v", regs)
	}
	if _, regs := diff(t, map[string]float64{"ns/op": 3.0, "ns/event": 3.0}, slower); len(regs) != 0 {
		t.Fatalf("per-metric override ignored: %v", regs)
	}
}

func TestCompareMissingCaseFailsGate(t *testing.T) {
	// The -2 line vanished — as it would if the gate stopped passing -cpu.
	_, regs := diff(t, nil, func(s string) string {
		lines := strings.Split(s, "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "BenchmarkFig8cParallel/workers=4-2") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	})
	if len(regs) != 1 || !regs["BenchmarkFig8cParallel/workers=4-2 (benchmark)"] {
		t.Fatalf("vanished benchmark did not fail the gate: %v", regs)
	}
}

// TestCompareMissingGatedMetricFailsGate: a benchmark that stops
// reporting events/op loses every per-event gate; one that stops
// reporting a rate loses that one. Either fails like a vanished benchmark.
func TestCompareMissingGatedMetricFailsGate(t *testing.T) {
	_, regs := diff(t, nil, replacer("\t     20000 events/op", ""))
	for _, want := range []string{"ns/event", "allocs/event", "B/event"} {
		if !regs["BenchmarkIngest/inline "+want] {
			t.Errorf("lost %s gate passed: %v", want, regs)
		}
	}
	if len(regs) != 3 {
		t.Errorf("regressions = %v, want exactly the three per-event gates", regs)
	}
	if _, regs = diff(t, nil, replacer("\t    600000 events/s", "")); len(regs) != 1 || !regs["BenchmarkIngest/inline events/s"] {
		t.Errorf("lost events/s gate: %v", regs)
	}
	if _, regs = diff(t, nil, replacer("\t   58240 B/op\t     149 allocs/op", "")); len(regs) != 4 {
		t.Errorf("a run without -benchmem lost 4 gates on opdetect, flagged %v", regs)
	}
}

func TestParseTolerances(t *testing.T) {
	m, err := parseTolerances("ns/op=0.5, events/s=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["ns/op"] != 0.5 || m["events/s"] != 0.3 {
		t.Fatalf("parsed %v", m)
	}
	if m, err := parseTolerances(""); err != nil || len(m) != 0 {
		t.Fatalf("empty flag: %v, %v", m, err)
	}
	for _, bad := range []string{"ns/op", "x=-1", "x=abc"} {
		if _, err := parseTolerances(bad); err == nil {
			t.Errorf("parseTolerances(%q) accepted", bad)
		}
	}
}
