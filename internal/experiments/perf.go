package experiments

import (
	"fmt"
	"strings"
	"time"

	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/scenario"
	"gretel/internal/tempest"
	"gretel/internal/trace"
	"gretel/internal/tsoutliers"
)

// LatencyPoint is one observation of a tracked API's latency, with the
// detector's shift-adjusted value (the paper's blue series).
type LatencyPoint struct {
	Time     time.Time
	Latency  time.Duration
	Adjusted time.Duration
}

// LatencySeries is the tracked API's full record for a run: the raw and
// adjusted series plus the alarms and level shifts raised — everything
// Figs 6 and 8b plot.
type LatencySeries struct {
	API    trace.API
	Points []LatencyPoint
	Alarms []tsoutliers.Alarm
	Shifts []tsoutliers.ShiftRecord
	// TempChanges counts temporary-change episodes (a shift that reverts
	// within the TC window — the shape of a bounded injection).
	TempChanges int
}

// AlarmsBetween counts alarms raised in [from, to].
func (s *LatencySeries) AlarmsBetween(from, to time.Time) int {
	n := 0
	for _, a := range s.Alarms {
		if !a.Time.Before(from) && !a.Time.After(to) {
			n++
		}
	}
	return n
}

// PerfStream is what a performance harness fed its analyzer: every
// event in order, with the library and configuration the analyzer ran
// with, so a test can replay the run through other analyzers.
type PerfStream struct {
	Events []trace.Event
	Lib    *fingerprint.Library
	Config core.Config
}

// Fig6Stream records the stream Fig6 feeds its analyzer.
func Fig6Stream(seed int64, concurrent int) *PerfStream {
	rec := &PerfStream{}
	fig6(seed, concurrent, rec)
	return rec
}

// Fig8bStream records the stream Fig8b feeds its analyzer.
func Fig8bStream(seed int64, concurrent int) *PerfStream {
	rec := &PerfStream{}
	fig8b(seed, concurrent, rec)
	return rec
}

// perfHarness runs a scenario harness while tracking one API's latency
// through the analyzer's own detector.
type perfHarness struct {
	*scenario.Harness
	target  trace.API
	pending map[uint64]time.Time
	series  *LatencySeries
	rec     *PerfStream // records the run when non-nil
}

func newPerfHarness(seed int64, target trace.API, lib *fingerprint.Library, acfg core.Config, rec *PerfStream) *perfHarness {
	acfg.PerfDetection = true
	if acfg.Latency.MinRun == 0 {
		acfg.Latency = tsoutliers.Options{Warmup: 12, MinRun: 4, K: 4, MinSpread: 0.008}
	}
	if rec != nil {
		rec.Lib, rec.Config = lib, acfg
	}
	h := &perfHarness{
		Harness: scenario.New(scenario.Options{Seed: seed, Library: lib, Analyzer: acfg}),
		target:  target,
		pending: make(map[uint64]time.Time),
		series:  &LatencySeries{API: target},
		rec:     rec,
	}
	h.Sink = h.ingest
	return h
}

// ingest forwards every event to the analyzer and mirrors the target
// API's request/response pairing to record the latency series.
func (h *perfHarness) ingest(ev trace.Event) {
	if h.rec != nil {
		h.rec.Events = append(h.rec.Events, ev)
	}
	h.Analyzer.Ingest(ev)
	if ev.API != h.target {
		return
	}
	switch ev.Type {
	case trace.RESTRequest:
		h.pending[ev.ConnID] = ev.Time
	case trace.RESTResponse:
		if t0, ok := h.pending[ev.ConnID]; ok {
			delete(h.pending, ev.ConnID)
			lat := ev.Time.Sub(t0)
			adj := lat
			if det := h.Analyzer.LatencyDetector(h.target); det != nil {
				adj = time.Duration(det.Adjusted(lat.Seconds()) * float64(time.Second))
			}
			h.series.Points = append(h.series.Points, LatencyPoint{Time: ev.Time, Latency: lat, Adjusted: adj})
		}
	}
}

func (h *perfHarness) finish() *LatencySeries {
	h.Finish()
	if det := h.Analyzer.LatencyDetector(h.target); det != nil {
		h.series.Alarms = det.Alarms()
		h.series.Shifts = det.Shifts()
		h.series.TempChanges = det.TempChanges()
	}
	return h.series
}

// Fig6Result carries the Neutron latency experiment output.
type Fig6Result struct {
	Series *LatencySeries
	// SurgeAt is when the CPU surge was installed.
	SurgeAt time.Time
	// Reports are the performance-fault reports raised.
	Reports []*core.Report
}

// Fig6 reproduces §7.2.2/Fig 6: a steady stream of VM-create operations
// (400 concurrent at peak), a CPU surge on the Neutron server partway
// through, and level-shift detection on Neutron's GET /v2.0/ports.json.
func Fig6(seed int64, concurrent int) Fig6Result {
	res, _ := fig6(seed, concurrent, nil)
	return res
}

// fig6 also returns the finished harness, to grade the reports by.
func fig6(seed int64, concurrent int, rec *PerfStream) (Fig6Result, *scenario.Harness) {
	if concurrent == 0 {
		concurrent = 400
	}
	target := trace.RESTAPI(trace.SvcNeutron, "GET", "/v2.0/ports.json")
	h := newPerfHarness(seed, target, scenario.CoreLibrary(), core.Config{}, rec)

	// Maintain roughly `concurrent` in-flight VM creates.
	stop := false
	h.D.Sim.Every(2*time.Second, func() bool { return stop }, func() {
		if h.D.Running() < concurrent {
			h.D.Start(openstack.OpVMCreate(), nil)
		}
	})
	h.Run(12 * time.Minute)
	surgeAt := h.D.Sim.Now()
	faults.InjectCPUSurge(h.D.Fabric.NodeFor(trace.SvcNeutron), 95)
	h.Run(15 * time.Minute)
	stop = true
	series := h.finish()

	var perfReports []*core.Report
	for _, rep := range h.Reports() {
		if rep.Kind == core.Performance {
			perfReports = append(perfReports, rep)
		}
	}
	return Fig6Result{Series: series, SurgeAt: surgeAt, Reports: perfReports}, h.Harness
}

// Fig8bResult carries the injected-latency experiment output.
type Fig8bResult struct {
	Series *LatencySeries
	// InjectAt/RemoveAt bracket the 50 ms injection window.
	InjectAt, RemoveAt time.Time
	// AlarmsDuring counts alarms raised inside the window; AlarmsEpisode
	// additionally includes the removal transient just after it (the
	// paper reports 18 alarms for the episode).
	AlarmsDuring  int
	AlarmsEpisode int
}

// Fig8b reproduces §7.3(4)/Fig 8b: 200 concurrent Tempest operations for
// ~20 minutes, with 50 ms of injected latency on all Glance traffic
// between the 5- and 15-minute marks, watching GET /v2/images/{id}.
func Fig8b(seed int64, concurrent int) Fig8bResult { return fig8b(seed, concurrent, nil) }

func fig8b(seed int64, concurrent int, rec *PerfStream) Fig8bResult {
	if concurrent == 0 {
		concurrent = 200
	}
	target := trace.RESTAPI(trace.SvcGlance, "GET", "/v2/images/{id}")
	cat := tempest.NewCatalog(seed)
	lib := GroundTruthLibrary(cat)
	// MinRun approximates the R tsoutliers confirmation lag: it alarms on
	// each outlying observation until the level shift is confirmed, which
	// in the paper produced 18 alarms across the injection window.
	h := newPerfHarness(seed, target, lib, core.Config{
		Latency: tsoutliers.Options{Warmup: 12, MinRun: 9, K: 4, MinSpread: 0.008},
	}, rec)

	// A mix of image and compute tests keeps the target API hot; ops
	// restart to sustain concurrency for the full window.
	pool := append(append([]*tempest.Test{}, cat.ByCategory[openstack.Image]...),
		cat.ByCategory[openstack.Compute][:50]...)
	idx := 0
	stop := false
	h.D.Sim.Every(time.Second, func() bool { return stop }, func() {
		for h.D.Running() < concurrent {
			h.D.Start(pool[idx%len(pool)].Op, nil)
			idx++
		}
	})

	h.Run(5 * time.Minute)
	injectAt := h.D.Sim.Now()
	h.D.Fabric.InjectLatency("glance-node", 50*time.Millisecond)
	h.Run(10 * time.Minute)
	removeAt := h.D.Sim.Now()
	h.D.Fabric.InjectLatency("glance-node", 0)
	h.Run(5 * time.Minute)
	stop = true
	series := h.finish()

	return Fig8bResult{
		Series:        series,
		InjectAt:      injectAt,
		RemoveAt:      removeAt,
		AlarmsDuring:  series.AlarmsBetween(injectAt, removeAt),
		AlarmsEpisode: series.AlarmsBetween(injectAt, removeAt.Add(2*time.Minute)),
	}
}

// FormatLatencySeries renders a series with shift markers, downsampled
// for terminal output.
func FormatLatencySeries(s *LatencySeries, every int) string {
	if every < 1 {
		every = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "series for %v: %d points, %d alarms, %d shifts\n",
		s.API, len(s.Points), len(s.Alarms), len(s.Shifts))
	b.WriteString("t_sec  latency_ms  adjusted_ms\n")
	var t0 time.Time
	if len(s.Points) > 0 {
		t0 = s.Points[0].Time
	}
	for i, p := range s.Points {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(&b, "%5.0f  %10.1f  %11.1f\n",
			p.Time.Sub(t0).Seconds(),
			float64(p.Latency)/1e6, float64(p.Adjusted)/1e6)
	}
	for _, sh := range s.Shifts {
		fmt.Fprintf(&b, "shift at t=%.0fs: %.1fms -> %.1fms\n",
			sh.Time.Sub(t0).Seconds(), sh.From*1000, sh.To*1000)
	}
	return b.String()
}
