package e2e

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"time"
)

// testSizes is a 5-simulated-second tape with faults dense enough that
// three laps yield the 200 reports a p95 needs (a fault fires only once
// its operation reaches the chosen step, so most of those injected in
// the last seconds never do).
var testSizes = Sizes{
	SimSeconds: 5, FaultGap: 20 * time.Millisecond, Parallel: 100,
	CleanEvents: 20000, CleanTailEvents: 15000,
	StormEvents: 12000, FaultEvery: 50,
	PacedRate: 60000,
}

func names(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []SpecMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestEveryWorkloadPrintsExactlyTheSpec runs all six workloads, untraced
// and traced, with the oracle on (a digest mismatch or an open ledger is
// an error from Run), and checks that the workloads and the metric names
// and units printed are exactly those BENCHMARK.json lists.
func TestEveryWorkloadPrintsExactlyTheSpec(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	ours := append([]string(nil), Workloads...)
	sort.Strings(ours)
	if !slices.Equal(listed, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, ours)
	}
	units := map[string]string{}
	for _, m := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s metric in seconds, lower better")
	}

	sizes := testSizes
	if raceEnabled {
		sizes.PacedRate /= 10
	}
	for _, w := range Workloads {
		var log bytes.Buffer
		s, err := prepare(Options{
			Workload: w, Seed: 1, Seconds: 0.05, Trace: true, Sizes: sizes, SetupRepeats: 1,
			WorkDir: t.TempDir(), OutDir: t.TempDir(), Log: &log,
		})
		if err != nil {
			t.Fatalf("%s: %v\n%s", w, err, log.String())
		}
		defer s.close()
		for _, traced := range []bool{false, true} {
			run, want := s.measure, specNames(spec.EndToEnd)
			if traced {
				run, want = s.trace, specNames(spec.PerLayer)
			}
			res, err := run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if got := names(res.Metrics); !slices.Equal(got, want) {
				t.Fatalf("%s traced=%v printed %v\nBENCHMARK.json lists %v", w, traced, got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", w, name, m.Unit, units[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestOracleRejectsAWrongVerdict checks the oracle is live: a lap whose
// reference digest differs must fail.
func TestOracleRejectsAWrongVerdict(t *testing.T) {
	in, err := BuildInputs(1, testSizes, "direct-storm", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := in.reference("direct-storm")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{in: in, workload: "direct-storm", ref: ref}
	if _, err := r.lap(nil); err != nil {
		t.Fatalf("lap against the true reference: %v", err)
	}
	r.ref.Digest = "0000000000000000" + ref.Digest[16:]
	if _, err := r.lap(nil); err == nil {
		t.Fatal("a lap whose digest differs from the reference passed the oracle")
	}
}

// TestSameSeedSameInputs: the seed fixes the inputs, another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	digest := func(seed int64) string {
		in, err := BuildInputs(seed, testSizes, "wire-steady", t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := in.reference("wire-steady")
		if err != nil {
			t.Fatal(err)
		}
		return ref.Digest
	}
	if a, b := digest(4), digest(4); a != b {
		t.Fatalf("seed 4 twice: %s vs %s", a, b)
	}
	if digest(4) == digest(5) {
		t.Fatal("seeds 4 and 5 produced the same reports")
	}
}
