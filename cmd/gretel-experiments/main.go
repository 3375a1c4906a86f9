// Command gretel-experiments regenerates every table and figure of the
// paper's evaluation (§7) on the simulated deployment. Each experiment
// prints the same rows/series the paper reports; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Usage:
//
//	gretel-experiments -exp table1
//	gretel-experiments -exp fig7a
//	gretel-experiments -exp all
//
// Experiments: table1, fig5, fig6, fig7a, fig7b, fig7c, fig8a, fig8b,
// fig8c, hansel, overhead, explain, all. The extra "reanalyze"
// experiment (never part of "all") replays a write-ahead log captured
// by `gretel -wal DIR` through a fresh analyzer — re-running Algorithm
// 2 offline over a recorded incident:
//
//	gretel-experiments -exp reanalyze -wal-dir /var/lib/gretel/wal
//	gretel-experiments -exp reanalyze -wal-dir d -wal-from 1000 -wal-to 2000
//
// The explain experiment reruns the Fig. 8a fault scenario with
// evidence tracing on and, with -out, writes out/explain.txt: one block
// per injected fault naming the blamed operation, the winning
// fingerprint, and the closest rejected candidate with its rejection
// reason.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/telemetry"
	"gretel/internal/telemetry/export"
	"gretel/internal/tempest"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run")
		seed      = flag.Int64("seed", 1, "workload seed")
		fast      = flag.Bool("fast", false, "reduced scales for a quick pass")
		outDir    = flag.String("out", "", "also write each figure's raw data as CSV into this directory")
		workers   = flag.Int("detect-workers", 0, "fig8c detection worker pool size (0 = inline detection)")
		walDir    = flag.String("wal-dir", "", "reanalyze: write-ahead log directory captured by gretel -wal")
		walFrom   = flag.Uint64("wal-from", 0, "reanalyze: first WAL sequence to replay (0 = from the start)")
		walTo     = flag.Uint64("wal-to", 0, "reanalyze: last WAL sequence to replay (0 = to the end)")
		exportURL = flag.String("telemetry-export", "", "ship per-interval telemetry to this gretel-tsdb base URL while experiments run (empty disables)")
		exportIvl = flag.Duration("export-interval", time.Second, "sampling interval for -telemetry-export")
		exportBuf = flag.Int("export-buffer", 10000, "points buffered while the TSDB is unreachable (oldest shed beyond this, counted)")
	)
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		// Per-run sections append; start each invocation fresh.
		os.Remove(filepath.Join(*outDir, "telemetry.txt"))
		os.Remove(filepath.Join(*outDir, "telemetry.json"))
		os.Remove(filepath.Join(*outDir, "telemetry.lp"))
	}

	// Live export while experiments run. The per-experiment
	// telemetry.Reset() shows up to the sampler as a monotonic reset —
	// detected, not mis-counted — so the shipped stream stays a valid
	// per-interval history across experiment boundaries.
	if *exportURL != "" {
		exporter, err := export.Start(export.Options{
			URL: *exportURL, Interval: *exportIvl, Buffer: *exportBuf, Proc: "gretel-experiments",
		})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			exporter.Drain(5 * time.Second)
			exporter.Close()
			es := exporter.Stats()
			log.Printf("export: sampled %d delivered %d shed %d", es.Sampled, es.Delivered, es.Shed)
		}()
		log.Printf("exporting telemetry to %s every %v", *exportURL, *exportIvl)
	}
	// lpTags stamp out/telemetry.lp points with the same host/proc/rev
	// identity the live exporter uses, so a bulk-loaded file and a live
	// stream land in comparable series.
	lpTags := export.NewSampler(telemetry.Default(), "gretel-experiments").BaseTags()

	// Each experiment runs against a zeroed default registry; its
	// telemetry snapshot is appended to out/telemetry.txt — and the
	// machine-readable mirror out/telemetry.json, one entry per
	// experiment in the snapshot schema /metrics?format=json serves
	// (provenance included) — so every figure's raw data ships with the
	// pipeline counters and stage latencies that produced it.
	var sections []telemetrySection
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		telemetry.Reset()
		start := time.Now()
		fn()
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		snap := telemetry.Snap()
		appendTelemetry(*outDir, name, snap)
		appendTelemetryLP(*outDir, name, &snap, lpTags)
		// Rewrite the JSON after every experiment: an interrupted "all"
		// run still leaves a valid file covering what completed.
		sections = append(sections, telemetrySection{Experiment: name, Telemetry: snap})
		writeTelemetryJSON(*outDir, sections)
	}

	parallels := []int{100, 200, 300, 400}
	faultCounts := []int{1, 4, 8, 16}
	events := 200000
	if *fast {
		parallels = []int{100, 200}
		faultCounts = []int{4, 8}
		events = 40000
	}

	run("table1", func() {
		res := experiments.Table1(*seed, 2)
		fmt.Print(experiments.FormatTable1(res))
	})

	run("fig5", func() {
		cat := tempest.NewCatalog(*seed)
		lib := experiments.GroundTruthLibrary(cat)
		points := experiments.Fig5(lib, 70)
		fmt.Print(experiments.FormatFig5(points))
		rows := [][]string{{"operation", "overlap"}}
		for _, p := range points {
			rows = append(rows, []string{p.Name, fmt.Sprintf("%.4f", p.Overlap)})
		}
		writeCSV(*outDir, "fig5", rows)
	})

	run("fig6", func() {
		concurrent := 400
		if *fast {
			concurrent = 120
		}
		res := experiments.Fig6(*seed, concurrent)
		fmt.Print(experiments.FormatLatencySeries(res.Series, 20))
		fmt.Printf("performance reports: %d\n", len(res.Reports))
		writeCSV(*outDir, "fig6", seriesRows(res.Series))
	})

	run("fig7a", func() {
		cells := experiments.Fig7a(*seed, parallels, faultCounts)
		fmt.Print(experiments.FormatPrecision(cells))
		writeCSV(*outDir, "fig7a", cellRows(cells))
	})

	run("fig7b", func() {
		// Fig 7b is the 8-fault row of the 7a sweep with both series.
		cells := experiments.Fig7a(*seed, parallels, []int{8})
		fmt.Print(experiments.FormatPrecision(cells))
		writeCSV(*outDir, "fig7b", cellRows(cells))
	})

	run("fig7c", func() {
		withRPC, withoutRPC := experiments.Fig7c(*seed)
		fmt.Println("with RPC symbols in fingerprints:")
		fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{withRPC}))
		fmt.Println("without RPC symbols (pruned, the default):")
		fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{withoutRPC}))
		writeCSV(*outDir, "fig7c", cellRows([]experiments.PrecisionCell{withRPC, withoutRPC}))
	})

	run("fig8a", func() {
		cells := experiments.Fig8a(*seed, parallels)
		fmt.Print(experiments.FormatPrecision(cells))
		writeCSV(*outDir, "fig8a", cellRows(cells))
	})

	run("fig8b", func() {
		concurrent := 200
		if *fast {
			concurrent = 100
		}
		res := experiments.Fig8b(*seed, concurrent)
		fmt.Print(experiments.FormatLatencySeries(res.Series, 20))
		fmt.Printf("alarms: %d inside the 10-minute window, %d across the episode (paper: 18)\n",
			res.AlarmsDuring, res.AlarmsEpisode)
		fmt.Printf("temporary-change episodes classified: %d (the bounded injection)\n", res.Series.TempChanges)
		writeCSV(*outDir, "fig8b", seriesRows(res.Series))
	})

	run("fig8c", func() {
		points := experiments.Fig8c(*seed, events, nil, core.Config{DetectWorkers: *workers})
		fmt.Print(experiments.FormatFig8c(points))
		rows := [][]string{{"fault_every", "events_per_sec", "mbps", "reports"}}
		for _, p := range points {
			rows = append(rows, []string{
				strconv.Itoa(p.FaultEvery),
				fmt.Sprintf("%.0f", p.Result.EventsPerSec),
				fmt.Sprintf("%.1f", p.Result.Mbps),
				strconv.Itoa(p.Result.Reports),
			})
		}
		writeCSV(*outDir, "fig8c", rows)
	})

	run("hansel", func() {
		g, h := experiments.HanselComparison(*seed, events)
		fmt.Print(experiments.FormatComparison(g, h))
		withT, withoutT := experiments.HanselLinking(*seed, events/2)
		fmt.Printf("HANSEL fault chains implicate %.1f operations with shared tenant ids (%.1f without);\n", withT, withoutT)
		fmt.Printf("GRETEL reports one candidate set per fault (see fig7b).\n")
	})

	run("explain", func() {
		parallel, faults := 100, 16
		if *fast {
			parallel, faults = 60, 4
		}
		res := experiments.Explain(*seed, parallel, faults)
		text := experiments.FormatExplain(res)
		fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{res.Cell}))
		fmt.Print(text)
		writeText(*outDir, "explain", text)
	})

	run("overhead", func() {
		n := 100
		if *fast {
			n = 40
		}
		res := experiments.Overhead(*seed, n)
		fmt.Print(experiments.FormatOverhead(res))
	})

	// reanalyze needs an input log, so it never joins "all": run it only
	// when named explicitly.
	if *exp == "reanalyze" {
		if *walDir == "" {
			log.Fatal("reanalyze: -wal-dir is required (a directory captured by gretel -wal)")
		}
		run("reanalyze", func() {
			res, err := experiments.Reanalyze(*seed, *walDir, *walFrom, *walTo, core.Config{DetectWorkers: *workers})
			if err != nil {
				log.Fatalf("reanalyze: %v", err)
			}
			text := experiments.FormatReanalyze(res)
			fmt.Print(text)
			writeText(*outDir, "reanalyze", text)
		})
	}

	// cluster spins up a real multi-process-shaped fleet (TCP receivers,
	// HTTP member endpoints, a live coordinator) and kills a member
	// mid-burst, so it stays out of "all": run it only when named.
	if *exp == "cluster" {
		run("cluster", func() {
			n := events / 8
			res, err := experiments.Cluster(*seed, n)
			if err != nil {
				log.Fatalf("cluster: %v", err)
			}
			text := experiments.FormatCluster(res)
			fmt.Print(text)
			writeText(*outDir, "cluster", text)
		})
	}

	switch *exp {
	case "all", "table1", "fig5", "fig6", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "hansel", "overhead", "explain", "reanalyze", "cluster":
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

// appendTelemetry appends one experiment's registry snapshot as a named
// section of dir/telemetry.txt; dir=="" is a no-op.
func appendTelemetry(dir, name string, snap telemetry.Snapshot) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "telemetry.txt")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "=== %s ===\n", name)
	if err := snap.WriteText(f); err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	fmt.Fprintln(f)
	log.Printf("appended telemetry for %s to %s (%s)", name, path, snap)
}

// appendTelemetryLP appends one experiment's snapshot to
// dir/telemetry.lp as InfluxDB line protocol — cumulative totals, one
// point per metric, tagged with the experiment name — so any run can
// be bulk-loaded into gretel-tsdb (curl --data-binary @out/telemetry.lp
// .../write) for inspection; dir=="" is a no-op.
func appendTelemetryLP(dir, name string, snap *telemetry.Snapshot, base []export.Tag) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "telemetry.lp")
	tags := append(append([]export.Tag{}, base...), export.Tag{Key: "experiment", Value: name})
	data := export.AppendSnapshot(nil, snap, tags, time.Now().UnixNano())
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	log.Printf("appended %s line-protocol points to %s", name, path)
}

// telemetrySection is one experiment's entry in out/telemetry.json: the
// same snapshot schema /metrics?format=json serves, so one set of
// tooling reads both.
type telemetrySection struct {
	Experiment string             `json:"experiment"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

// writeTelemetryJSON rewrites dir/telemetry.json with every section so
// far; dir=="" is a no-op.
func writeTelemetryJSON(dir string, sections []telemetrySection) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "telemetry.json")
	b, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Printf("writing %s: %v", path, err)
	}
}

// writeText writes a finished text report to dir/name.txt; dir=="" is a
// no-op.
func writeText(dir, name, text string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	log.Printf("wrote %s", path)
}

// writeCSV writes rows (first row headers) to dir/name.csv; dir=="" is a
// no-op.
func writeCSV(dir, name string, rows [][]string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		log.Printf("writing %s: %v", path, err)
		return
	}
	log.Printf("wrote %s", path)
}

func cellRows(cells []experiments.PrecisionCell) [][]string {
	rows := [][]string{{"parallel", "faults", "reports", "precision", "matched", "api_only", "hit_rate", "beta", "max_delay_s"}}
	for _, c := range cells {
		rows = append(rows, []string{
			strconv.Itoa(c.Parallel), strconv.Itoa(c.Faults), strconv.Itoa(c.Reports),
			fmt.Sprintf("%.6f", c.AvgTheta), fmt.Sprintf("%.3f", c.AvgMatched),
			fmt.Sprintf("%.3f", c.AvgByErrorOnly), fmt.Sprintf("%.4f", c.HitRate),
			fmt.Sprintf("%.0f", c.AvgBeta), fmt.Sprintf("%.3f", c.MaxReportDelay.Seconds()),
		})
	}
	return rows
}

func seriesRows(s *experiments.LatencySeries) [][]string {
	rows := [][]string{{"t_unix_us", "latency_ms", "adjusted_ms"}}
	for _, p := range s.Points {
		rows = append(rows, []string{
			strconv.FormatInt(p.Time.UnixMicro(), 10),
			fmt.Sprintf("%.3f", float64(p.Latency)/1e6),
			fmt.Sprintf("%.3f", float64(p.Adjusted)/1e6),
		})
	}
	return rows
}
