// Command gretel-e2e is the repository's benchmark: one command that
// builds the inputs, runs one workload, verifies it and prints every
// metric by name. The last line of standard output is the result as one
// JSON object.
//
//	gretel-e2e -workload wire-steady -seed 1 -seconds 6
//	gretel-e2e -workload stream-durable -trace 1     # per-layer metrics
//	gretel-e2e -selfcheck                            # A/A: two sets of runs must agree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"gretel/bench/e2e"
	"gretel/bench/loadgen"
)

func main() {
	var (
		workload  = flag.String("workload", "", "one of: wire-steady, stream-durable, direct-clean, direct-storm, wal-recover, paced-wire")
		seed      = flag.Int64("seed", 1, "seed for every generated input")
		seconds   = flag.Float64("seconds", 6, "how long the timed laps run")
		traceFlag = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics with tracing off")
		workDir   = flag.String("workdir", "bench/out/work", "scratch directory for WAL files (removed after the run)")
		outDir    = flag.String("out", "bench/out", "directory the traced run writes trace-<workload>.json to")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two sets and fail if any end-to-end metric's medians differ by more than its bound")
		spec      = flag.String("spec", "BENCHMARK.json", "benchmark definition, read by -selfcheck for the bounds")
		runs      = flag.Int("runs", 3, "runs per set and workload under -selfcheck")
	)
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(*spec, *runs, *seed, *workDir, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "gretel-e2e: selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	res, err := e2e.Run(e2e.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag != 0,
		Sizes: e2e.DefaultSizes, WorkDir: *workDir, OutDir: *outDir, Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gretel-e2e:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gretel-e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// selfCheck is the A/A comparison: for every workload it makes two
// sets of runs of this same binary, alternating between the sets and
// giving run i of each set the same seed, and fails if the two sets'
// medians of any end-to-end metric differ by more than the metric's own
// bound. Each run is a fresh process, as the driver's runs are.
func selfCheck(specPath string, runs int, seed int64, workDir, outDir string) error {
	spec, err := e2e.LoadSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runOnce := func(workload string, seed int64) (map[string]e2e.Metric, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(spec.RunSeconds), "-trace", "0", "-workdir", workDir, "-out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res e2e.Result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
		}
		return res.Metrics, nil
	}
	bad := 0
	for _, w := range spec.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for set := range sets {
				m, err := runOnce(w.Name, seed+int64(i))
				if err != nil {
					return err
				}
				for name, v := range m {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("%s\n", w.Name)
		for _, m := range spec.EndToEnd {
			a, b := loadgen.Median(sets[0][m.Name]), loadgen.Median(sets[1][m.Name])
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("  %-24s A %14.4f  B %14.4f  diff %6.3f  bound %5.2f  %s\n", m.Name, a, b, diff, m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs differ between two sets of runs of the same build by more than their bound", bad)
	}
	return nil
}
