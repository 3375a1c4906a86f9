package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/telemetry"
	"gretel/internal/tempest"
)

// runExperiments regenerates the paper's tables and figures (§7).
func runExperiments(args []string) error {
	p := newProc("experiments")
	fs := p.fs
	var (
		exp     = fs.String("exp", "all", "experiment to run: table1, fig5, fig6, fig7a, fig7b, fig7c, fig8a, fig8b, fig8c, hansel, explain, overhead, all; or reanalyze, cluster")
		seed    = fs.Int64("seed", 1, "workload seed")
		fast    = fs.Bool("fast", false, "reduced scales for a quick pass")
		outDir  = fs.String("out", "", "also write each figure's raw data as CSV into this directory")
		workers = fs.Int("detect-workers", 0, "fig8c and reanalyze detection worker pool size (0 = inline detection)")
		walDir  = fs.String("wal-dir", "", "reanalyze: write-ahead log directory captured by gretel analyze -wal")
		walFrom = fs.Uint64("wal-from", 0, "reanalyze: first WAL sequence to replay (0 = from the start)")
		walTo   = fs.Uint64("wal-to", 0, "reanalyze: last WAL sequence to replay (0 = to the end)")
	)

	parallels := []int{100, 200, 300, 400}
	faultCounts := []int{1, 4, 8, 16}
	events := 200000
	// In the order "all" runs them; alone ones need an input or a live
	// fleet and run only when named.
	exps := []experiment{
		{"table1", false, func() error {
			fmt.Print(experiments.FormatTable1(experiments.Table1(*seed, 2)))
			return nil
		}},
		{"fig5", false, func() error {
			points := experiments.Fig5(experiments.GroundTruthLibrary(tempest.NewCatalog(*seed)), 70)
			fmt.Print(experiments.FormatFig5(points))
			rows := [][]string{{"operation", "overlap"}}
			for _, pt := range points {
				rows = append(rows, []string{pt.Name, fmt.Sprintf("%.4f", pt.Overlap)})
			}
			return writeCSV(*outDir, "fig5", rows)
		}},
		{"fig6", false, func() error {
			res := experiments.Fig6(*seed, pick(*fast, 120, 400))
			fmt.Print(experiments.FormatLatencySeries(res.Series, 20))
			fmt.Printf("performance reports: %d\n", len(res.Reports))
			return writeCSV(*outDir, "fig6", seriesRows(res.Series))
		}},
		{"fig7a", false, func() error {
			cells := experiments.Fig7a(*seed, parallels, faultCounts)
			fmt.Print(experiments.FormatPrecision(cells))
			return writeCSV(*outDir, "fig7a", cellRows(cells))
		}},
		{"fig7b", false, func() error {
			// Fig 7b is the 8-fault row of the 7a sweep with both series.
			cells := experiments.Fig7a(*seed, parallels, []int{8})
			fmt.Print(experiments.FormatPrecision(cells))
			return writeCSV(*outDir, "fig7b", cellRows(cells))
		}},
		{"fig7c", false, func() error {
			withRPC, withoutRPC := experiments.Fig7c(*seed)
			fmt.Println("with RPC symbols in fingerprints:")
			fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{withRPC}))
			fmt.Println("without RPC symbols (pruned, the default):")
			fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{withoutRPC}))
			return writeCSV(*outDir, "fig7c", cellRows([]experiments.PrecisionCell{withRPC, withoutRPC}))
		}},
		{"fig8a", false, func() error {
			cells := experiments.Fig8a(*seed, parallels)
			fmt.Print(experiments.FormatPrecision(cells))
			return writeCSV(*outDir, "fig8a", cellRows(cells))
		}},
		{"fig8b", false, func() error {
			res := experiments.Fig8b(*seed, pick(*fast, 100, 200))
			fmt.Print(experiments.FormatLatencySeries(res.Series, 20))
			fmt.Printf("alarms: %d inside the 10-minute window, %d across the episode (paper: 18)\n",
				res.AlarmsDuring, res.AlarmsEpisode)
			fmt.Printf("temporary-change episodes classified: %d (the bounded injection)\n", res.Series.TempChanges)
			return writeCSV(*outDir, "fig8b", seriesRows(res.Series))
		}},
		{"fig8c", false, func() error {
			points := experiments.Fig8c(*seed, events, nil, core.Config{DetectWorkers: *workers})
			fmt.Print(experiments.FormatFig8c(points))
			rows := [][]string{{"fault_every", "events_per_sec", "mbps", "reports"}}
			for _, pt := range points {
				rows = append(rows, []string{
					strconv.Itoa(pt.FaultEvery),
					fmt.Sprintf("%.0f", pt.Result.EventsPerSec),
					fmt.Sprintf("%.1f", pt.Result.Mbps),
					strconv.Itoa(pt.Result.Reports),
				})
			}
			return writeCSV(*outDir, "fig8c", rows)
		}},
		{"hansel", false, func() error {
			g, h := experiments.HanselComparison(*seed, events)
			fmt.Print(experiments.FormatComparison(g, h))
			withT, withoutT := experiments.HanselLinking(*seed, events/2)
			fmt.Printf("HANSEL fault chains implicate %.1f operations with shared tenant ids (%.1f without);\n", withT, withoutT)
			fmt.Printf("GRETEL reports one candidate set per fault (see fig7b).\n")
			return nil
		}},
		{"explain", false, func() error {
			// The Fig. 8a scenario with evidence tracing: per fault, the
			// blamed operation, the winning fingerprint and the closest
			// rejected candidate.
			res := experiments.Explain(*seed, pick(*fast, 60, 100), pick(*fast, 4, 16))
			text := experiments.FormatExplain(res)
			fmt.Print(experiments.FormatPrecision([]experiments.PrecisionCell{res.Cell}))
			fmt.Print(text)
			return writeText(*outDir, "explain", text)
		}},
		{"overhead", false, func() error {
			fmt.Print(experiments.FormatOverhead(experiments.Overhead(*seed, pick(*fast, 40, 100))))
			return nil
		}},
		{"reanalyze", true, func() error {
			// Algorithm 2 offline over a WAL that analyze -wal captured.
			res, err := experiments.Reanalyze(*seed, *walDir, *walFrom, *walTo, core.Config{DetectWorkers: *workers})
			if err != nil {
				return err
			}
			text := experiments.FormatReanalyze(res)
			fmt.Print(text)
			return writeText(*outDir, "reanalyze", text)
		}},
		{"cluster", true, func() error {
			// A live fleet over TCP and HTTP, one member killed mid-burst.
			res, err := experiments.Cluster(*seed, events/8)
			if err != nil {
				return err
			}
			text := experiments.FormatCluster(res)
			fmt.Print(text)
			return writeText(*outDir, "cluster", text)
		}},
	}
	err := p.parse(args, func() error {
		switch {
		case *exp == "reanalyze" && *walDir == "":
			return fmt.Errorf("-exp reanalyze needs -wal-dir (a directory captured by gretel analyze -wal)")
		case *exp != "all" && !slices.ContainsFunc(exps, func(e experiment) bool { return e.name == *exp }):
			return fmt.Errorf("-exp: unknown experiment %q", *exp)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if *fast {
		parallels = []int{100, 200}
		faultCounts = []int{4, 8}
		events = 40000
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		// Per-run sections append; start each invocation fresh.
		for _, name := range []string{"telemetry.txt", "telemetry.json"} {
			os.Remove(filepath.Join(*outDir, name))
		}
	}

	// Each experiment runs against a zeroed registry, and its snapshot
	// ships beside its figure.
	var sections []telemetrySection
	for _, e := range exps {
		if e.name != *exp && (*exp != "all" || e.alone) {
			continue
		}
		fmt.Printf("=== %s ===\n", e.name)
		telemetry.Reset()
		start := time.Now()
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("(%s took %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
		sections = append(sections, telemetrySection{Experiment: e.name, Telemetry: telemetry.Snap()})
		if err := writeTelemetry(*outDir, sections); err != nil {
			return err
		}
	}
	return nil
}

// writeTelemetry appends the last section's snapshot to telemetry.txt
// and rewrites telemetry.json with every section so far, in the schema
// /metrics?format=json serves, so an interrupted "all" still leaves a
// valid file.
func writeTelemetry(dir string, sections []telemetrySection) error {
	s := &sections[len(sections)-1]
	return errors.Join(
		writeOut(dir, "telemetry.txt", os.O_APPEND, func(w io.Writer) error {
			fmt.Fprintf(w, "=== %s ===\n", s.Experiment)
			if err := s.Telemetry.WriteText(w); err != nil {
				return err
			}
			_, err := fmt.Fprintln(w)
			return err
		}),
		writeOut(dir, "telemetry.json", os.O_TRUNC, func(w io.Writer) error {
			b, err := json.MarshalIndent(sections, "", "  ")
			if err == nil {
				_, err = w.Write(append(b, '\n'))
			}
			return err
		}),
	)
}

type experiment struct {
	name  string
	alone bool // never part of "all"
	fn    func() error
}

// pick returns the -fast scale or the full one.
func pick(fast bool, small, full int) int {
	if fast {
		return small
	}
	return full
}

// telemetrySection is one experiment's entry in telemetry.json.
type telemetrySection struct {
	Experiment string             `json:"experiment"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

// writeOut creates dir/name (mode os.O_TRUNC) or appends to it
// (os.O_APPEND) through fill; dir == "" writes nothing.
func writeOut(dir, name string, mode int, fill func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	log.Printf("wrote %s", path)
	return nil
}

func writeText(dir, name, text string) error {
	return writeOut(dir, name+".txt", os.O_TRUNC, func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	})
}

// writeCSV writes rows, the first the header.
func writeCSV(dir, name string, rows [][]string) error {
	return writeOut(dir, name+".csv", os.O_TRUNC, func(w io.Writer) error {
		return csv.NewWriter(w).WriteAll(rows)
	})
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
