package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/hansel"
	"gretel/internal/openstack"
	"gretel/internal/replay"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

// ThroughputPoint is one Fig 8c sample.
type ThroughputPoint struct {
	FaultEvery int
	Result     replay.Result
}

// ThroughputMix is the operation mix of the throughput streams: every
// 6th test of the catalog (~200 operations across all service
// categories).
func ThroughputMix(cat *tempest.Catalog) []*openstack.Operation {
	ops := make([]*openstack.Operation, 0, len(cat.Tests)/6+1)
	for i, t := range cat.Tests {
		if i%6 == 0 {
			ops = append(ops, t.Op)
		}
	}
	return ops
}

// Fig8c measures the analyzer's sustained throughput for fault
// frequencies of 1 per {100, 500, 1000, 1500, 2000} messages (the paper's
// sweep), replaying a synthesized concurrent-operation stream at full
// speed. cfg configures the analyzer per point (the detection worker
// pool); the zero Config detects inline.
func Fig8c(seed int64, events int, faultFreqs []int, cfg core.Config) []ThroughputPoint {
	if events == 0 {
		events = 200000
	}
	if len(faultFreqs) == 0 {
		faultFreqs = []int{100, 500, 1000, 1500, 2000}
	}
	cat := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(cat)
	ops := ThroughputMix(cat)

	var out []ThroughputPoint
	for _, fe := range faultFreqs {
		stream := replay.Synthesize(replay.StreamConfig{
			Ops: ops, Concurrency: 400, Events: events,
			FaultEvery: fe, PPS: 50000, Seed: seed ^ int64(fe),
		})
		a := core.New(lib, cfg)
		out = append(out, ThroughputPoint{FaultEvery: fe, Result: replay.Drive(a, stream)})
	}
	return out
}

// FormatFig8c renders the throughput sweep.
func FormatFig8c(points []ThroughputPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%11s %10s %12s %9s %8s %12s\n",
		"fault_every", "events", "events/sec", "Mbps", "reports", "max-delay")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(&b, "%11d %10d %12.0f %9.1f %8d %12s\n",
			p.FaultEvery, r.Events, r.EventsPerSec, r.Mbps, r.Reports,
			r.MaxReportDelay.Round(time.Millisecond))
	}
	return b.String()
}

// HanselComparison runs the same stream through GRETEL and the HANSEL
// baseline (§7.4.1: HANSEL peaks at 1.6K msgs/s with ~30 s report
// latency; GRETEL reports in <2 s).
func HanselComparison(seed int64, events int) (gretel, baseline replay.Result) {
	if events == 0 {
		events = 100000
	}
	cat := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(cat)
	ops := make([]*openstack.Operation, 0, 100)
	for i, t := range cat.Tests {
		if i%12 == 0 {
			ops = append(ops, t.Op)
		}
	}
	stream := replay.Synthesize(replay.StreamConfig{
		Ops: ops, Concurrency: 400, Events: events, FaultEvery: 1000,
		PPS: 50000, Seed: seed ^ 0xba5e,
	})

	a := core.New(lib, core.Config{})
	gretel = replay.Drive(a, stream)
	s := hansel.New(hansel.Config{})
	baseline = replay.DriveHansel(s, stream)
	return gretel, baseline
}

// FormatComparison renders the GRETEL vs HANSEL summary.
func FormatComparison(gretel, baseline replay.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %9s %8s %14s\n", "system", "events/sec", "Mbps", "reports", "report-latency")
	fmt.Fprintf(&b, "%8s %12.0f %9.1f %8d %14s\n", "GRETEL",
		gretel.EventsPerSec, gretel.Mbps, gretel.Reports, gretel.MaxReportDelay.Round(time.Millisecond))
	fmt.Fprintf(&b, "%8s %12.0f %9.1f %8d %14s\n", "HANSEL",
		baseline.EventsPerSec, baseline.Mbps, baseline.Reports, baseline.MaxReportDelay.Round(time.Millisecond))
	return b.String()
}

// OverheadResult is the §7.4.2 substitute measurement: since the analyzer
// here is a library call rather than a separate daemon, CPU is reported
// as analyzer wall-clock per event and memory as heap growth across the
// run.
type OverheadResult struct {
	Tests         int
	Events        uint64
	AnalyzerWall  time.Duration
	PerEvent      time.Duration
	HeapGrowthMB  float64
	PeakHeapMB    float64
	SimulatedSpan time.Duration
	AnalyzerShare float64 // analyzer wall / total wall
	TotalWall     time.Duration
}

// Overhead runs 100 parallel catalog tests through the full stack and
// measures analyzer cost.
func Overhead(seed int64, parallel int) OverheadResult {
	if parallel == 0 {
		parallel = 100
	}
	cat := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(cat)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	runSeed := seed ^ 0x0bead
	d := openstack.NewDeployment(openstack.Config{Seed: runSeed, HeartbeatPeriod: 10 * time.Second})
	analyzer := core.New(lib, core.Config{})
	var analyzerWall time.Duration
	mon := agent.NewMonitor("analyzer", func(ev trace.Event) {
		t0 := time.Now()
		analyzer.Ingest(ev)
		analyzerWall += time.Since(t0)
	}, d.GroundTruth)
	d.Fabric.Tap(mon.HandlePacket)

	startWall := time.Now()
	startSim := d.Sim.Now()
	rng := rand.New(rand.NewSource(runSeed))
	for i := 0; i < parallel; i++ {
		d.Start(cat.Tests[rng.Intn(len(cat.Tests))].Op, nil)
	}
	d.Sim.RunUntil(d.Sim.Now().Add(2 * time.Hour))
	d.StopNoise()
	d.Sim.Run()
	analyzer.Flush()
	totalWall := time.Since(startWall)

	runtime.ReadMemStats(&ms1)
	res := OverheadResult{
		Tests:         parallel,
		Events:        analyzer.Stats.Events,
		AnalyzerWall:  analyzerWall,
		SimulatedSpan: d.Sim.Now().Sub(startSim),
		TotalWall:     totalWall,
		HeapGrowthMB:  float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)) / 1e6,
		PeakHeapMB:    float64(ms1.HeapSys) / 1e6,
	}
	if analyzer.Stats.Events > 0 {
		res.PerEvent = analyzerWall / time.Duration(analyzer.Stats.Events)
	}
	if totalWall > 0 {
		res.AnalyzerShare = float64(analyzerWall) / float64(totalWall)
	}
	return res
}

// FormatOverhead renders the overhead measurement.
func FormatOverhead(r OverheadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "parallel tests:        %d\n", r.Tests)
	fmt.Fprintf(&b, "events processed:      %d over %s simulated\n", r.Events, r.SimulatedSpan.Round(time.Second))
	fmt.Fprintf(&b, "analyzer wall time:    %s (%.2f%% of run, %s/event)\n",
		r.AnalyzerWall.Round(time.Millisecond), r.AnalyzerShare*100, r.PerEvent.Round(time.Nanosecond))
	fmt.Fprintf(&b, "heap growth:           %.1f MB (heap sys %.1f MB)\n", r.HeapGrowthMB, r.PeakHeapMB)
	return b.String()
}

// HanselLinking quantifies §9.2 item 5 ("common identifiers, like tenant
// ID, may cause a faulty operation to link with several successful
// operations"): the same fault stream stitched with and without a shared
// tenant-id space, reporting the average number of operations HANSEL's
// fault chains implicate. GRETEL reports one candidate set per fault; a
// HANSEL chain that links dozens of healthy operations buries the signal.
func HanselLinking(seed int64, events int) (withTenants, withoutTenants float64) {
	if events == 0 {
		events = 60000
	}
	stream := replay.Synthesize(replay.StreamConfig{
		Concurrency: 200, Events: events, FaultEvery: 2000, PPS: 50000, Seed: seed ^ 0x7e4a,
	})
	avg := func(buckets int) float64 {
		s := hansel.New(hansel.Config{TenantBuckets: buckets})
		replay.DriveHansel(s, stream)
		reps := s.Reports()
		if len(reps) == 0 {
			return 0
		}
		total := 0
		for _, rep := range reps {
			total += rep.OperationsLinked()
		}
		return float64(total) / float64(len(reps))
	}
	return avg(8), avg(0)
}
