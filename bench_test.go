// Repository benchmarks: the tables and figures of the paper's
// evaluation that are not one of the twelve pipeline scenarios
// (scenario_bench_test.go, soak_bench_test.go — Table 1 and Fig 8c live
// there), plus ablations of the design choices DESIGN.md calls out.
// Figures that are sweeps are benchmarked at one representative cell;
// `gretel experiments` regenerates the full sweeps.
package gretel_test

import (
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/fingerprint"
	"gretel/internal/hansel"
	"gretel/internal/openstack"
	"gretel/internal/replay"
	"gretel/internal/telemetry"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

// BenchmarkFig5_OverlapCDF measures the cross-category overlap CDF over
// the full 1200-fingerprint library.
func BenchmarkFig5_OverlapCDF(b *testing.B) {
	lib := experiments.BenchLibrary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiments.Fig5(lib, 70)
		if len(points) != 70 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkFig7a_Precision measures one precision cell: 100 parallel
// tests, 4 injected faults, full detection pipeline.
func BenchmarkFig7a_Precision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig7a(1, []int{100}, []int{4})
		if cells[0].Reports != 4 {
			b.Fatalf("reports = %d", cells[0].Reports)
		}
	}
}

// BenchmarkHanselBaseline drives a Fig 8c-sized stream through the
// HANSEL per-message stitcher for the §7.4.1 comparison.
func BenchmarkHanselBaseline(b *testing.B) {
	stream := replay.Synthesize(replay.StreamConfig{
		Concurrency: 400, Events: 100000, FaultEvery: 1000, Seed: 7,
	})
	b.ResetTimer()
	var res replay.Result
	for i := 0; i < b.N; i++ {
		s := hansel.New(hansel.Config{})
		res = replay.DriveHansel(s, stream)
	}
	b.ReportMetric(res.Mbps, "Mbps")
	b.ReportMetric(res.EventsPerSec, "events/s")
}

// precisionCellWith runs the Fig7a cell with a custom analyzer config.
func precisionCellWith(b *testing.B, cfg core.Config) experiments.PrecisionCell {
	b.Helper()
	cat := tempest.NewCatalog(1)
	lib := experiments.GroundTruthLibrary(cat)
	run := &experiments.ParallelRun{
		Catalog: cat, Library: lib, Parallel: 100,
		FaultTests: []*tempest.Test{cat.ByCategory[openstack.Compute][3]},
		Analyzer:   cfg, Seed: 91,
	}
	return run.Run()
}

// BenchmarkAblationContextBuffer compares the default stop-on-drop
// context-buffer growth against growing to the full window.
func BenchmarkAblationContextBuffer(b *testing.B) {
	b.Run("stop-on-drop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := precisionCellWith(b, core.Config{})
			b.ReportMetric(cell.AvgMatched, "matched")
		}
	})
	b.Run("grow-to-cover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := precisionCellWith(b, core.Config{GrowToCover: true})
			b.ReportMetric(cell.AvgMatched, "matched")
		}
	})
}

// BenchmarkAblationRPCPruning compares matching with RPC symbols pruned
// (the §6 optimization) against keeping them.
func BenchmarkAblationRPCPruning(b *testing.B) {
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := precisionCellWith(b, core.Config{})
			b.ReportMetric(cell.AvgMatched, "matched")
		}
	})
	b.Run("with-rpc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := precisionCellWith(b, core.Config{DisablePruneRPC: true})
			b.ReportMetric(cell.AvgMatched, "matched")
		}
	})
}

// BenchmarkAblationSnapshotTrigger compares snapshotting only on REST
// errors (default) against snapshotting on every RPC error too.
func BenchmarkAblationSnapshotTrigger(b *testing.B) {
	b.Run("rest-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			precisionCellWith(b, core.Config{})
		}
	})
	b.Run("rest-and-rpc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			precisionCellWith(b, core.Config{SnapshotOnRPCErrors: true})
		}
	})
}

// BenchmarkAblationRelaxedMatch compares the relaxed state-change matcher
// against the strict full-sequence subsequence matcher.
func BenchmarkAblationRelaxedMatch(b *testing.B) {
	cat := tempest.NewCatalog(1)
	lib := experiments.GroundTruthLibrary(cat)
	// A realistic snapshot: symbols of 100 interleaved operations.
	stream := replay.Synthesize(replay.StreamConfig{Concurrency: 100, Events: 2000, Seed: 3})
	var snapshot []rune
	for i := range stream {
		if stream[i].Type.Request() {
			if r, ok := lib.Table.Lookup(stream[i].API); ok {
				snapshot = append(snapshot, r)
			}
		}
	}
	fps := lib.All()[:200]
	b.Run("relaxed", func(b *testing.B) {
		idx := fingerprint.NewIndex(snapshot)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, fp := range fps {
				fp.MatchRelaxedIndexed(idx)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, fp := range fps {
				fp.MatchStrict(snapshot)
			}
		}
	})
}

// BenchmarkAblationPostingLists compares candidate pre-selection via the
// per-symbol posting lists against scanning all 1200 fingerprints.
func BenchmarkAblationPostingLists(b *testing.B) {
	cat := tempest.NewCatalog(1)
	lib := experiments.GroundTruthLibrary(cat)
	api := trace.RESTAPI(trace.SvcNova, "POST", "/v2.1/servers")
	sym, ok := lib.Table.Lookup(api)
	if !ok {
		b.Fatal("symbol missing")
	}
	b.Run("posting-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if lib.Candidates(sym).Len() == 0 {
				b.Fatal("no candidates")
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, fp := range lib.All() {
				for _, s := range fp.Symbols {
					if s == sym {
						n++
						break
					}
				}
			}
			if n == 0 {
				b.Fatal("no candidates")
			}
		}
	})
}

// BenchmarkTelemetryOverhead is the guard that keeps "lightweight"
// measurable: the per-event instrumentation (counter increments,
// histogram observes) must stay well under 100 ns/op, or the
// self-telemetry layer starts distorting the throughput it reports.
// Spans cost two time.Now calls on top and therefore run only on
// per-snapshot paths (fault detection, RCA), never per event.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := telemetry.GetCounter("bench.counter")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		c := telemetry.GetCounter("bench.counter_par")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := telemetry.GetHistogram("bench.hist")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
	b.Run("span", func(b *testing.B) {
		// A span is two time.Now calls plus one histogram observation —
		// the full cost of timing one pipeline stage.
		h := telemetry.GetHistogram("bench.span")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Start().End()
		}
	})
	b.Run("span-with-name-lookup", func(b *testing.B) {
		// The convenience path pays a registry map read on top.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			telemetry.StartSpan("bench.span_lookup").End()
		}
	})
}

// BenchmarkFingerprintLearn measures Algorithm 1 on a realistic trace set.
func BenchmarkFingerprintLearn(b *testing.B) {
	cat := tempest.NewCatalog(1)
	test := cat.ByCategory[openstack.Compute][0] // the FPmax giant
	traces := make([][]trace.API, 3)
	for r := range traces {
		traces[r] = tempest.RunIsolated(test, int64(r+1), nil)
		if traces[r] == nil {
			b.Fatal("isolated run failed")
		}
	}
	nf := fingerprint.NewNoiseFilter(openstack.NoiseAPIs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fingerprint.Learn(traces, nf); len(got) == 0 {
			b.Fatal("empty fingerprint")
		}
	}
}

// BenchmarkAblationCorrelationIDs measures the §5.3.1 correlation-id
// extension against the baseline detection on the same workload.
func BenchmarkAblationCorrelationIDs(b *testing.B) {
	cat := tempest.NewCatalog(1)
	lib := experiments.GroundTruthLibrary(cat)
	mk := func(corr bool) experiments.PrecisionCell {
		run := &experiments.ParallelRun{
			Catalog: cat, Library: lib, Parallel: 100,
			FaultTests:     []*tempest.Test{cat.ByCategory[openstack.Compute][3]},
			Seed:           91,
			CorrelationIDs: corr,
		}
		return run.Run()
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := mk(false)
			b.ReportMetric(cell.AvgMatched, "matched")
			b.ReportMetric(cell.HitRate, "hit")
		}
	})
	b.Run("corr-ids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell := mk(true)
			b.ReportMetric(cell.AvgMatched, "matched")
			b.ReportMetric(cell.HitRate, "hit")
		}
	})
}

// BenchmarkAblationNoiseFilter compares Algorithm 1's fingerprint quality
// with and without the noise filter: unfiltered learning keeps heartbeat
// and auth symbols, inflating fingerprints and polluting matching.
func BenchmarkAblationNoiseFilter(b *testing.B) {
	cat := tempest.NewCatalog(1)
	test := cat.ByCategory[openstack.Compute][1]
	traces := make([][]trace.API, 2)
	for r := range traces {
		traces[r] = tempest.RunIsolated(test, int64(r+1), nil)
		if traces[r] == nil {
			b.Fatal("isolated run failed")
		}
	}
	truth := len(test.Op.APIs())
	filtered := fingerprint.NewNoiseFilter(openstack.NoiseAPIs())
	unfiltered := &fingerprint.NoiseFilter{}
	b.Run("filtered", func(b *testing.B) {
		var got int
		for i := 0; i < b.N; i++ {
			got = len(fingerprint.Learn(traces, filtered))
		}
		b.ReportMetric(float64(got), "fp-len")
		b.ReportMetric(float64(truth), "truth-len")
	})
	b.Run("unfiltered", func(b *testing.B) {
		var got int
		for i := 0; i < b.N; i++ {
			got = len(fingerprint.Learn(traces, unfiltered))
		}
		b.ReportMetric(float64(got), "fp-len")
		b.ReportMetric(float64(truth), "truth-len")
	})
}
