// Package scenario wires a complete GRETEL stack around the simulated
// OpenStack deployment: monitoring agents tapping the fabric, the
// analyzer consuming their events, the collectd-analogue poller, the
// root-cause engine, and a fault-injection plan.
//
// The case-study tests (§7.2), the evaluation experiments (§7.3/§7.4)
// and the runnable examples all build on this harness.
//
// Ground truth meets reports here and nowhere else: Truth and Hit join a
// report's offending message, by its wire identifiers (connection and
// message id), to the deployment's record of which operation sent it.
// Graders read truth through them, never off the report.
package scenario

import (
	"slices"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/rca"
	"gretel/internal/trace"
)

// Options configures a harness. Zero values take sensible defaults.
type Options struct {
	Seed     int64
	Deploy   openstack.Config
	Analyzer core.Config
	WithRCA  bool
	// Library is the fingerprint library the analyzer matches against.
	// When nil, a library over the hand-written core operations is built
	// from ground truth.
	Library *fingerprint.Library
	// PollPeriod spaces resource polls (paper: 1 s). Zero disables
	// polling (faster when RCA is off).
	PollPeriod time.Duration
}

// Harness is the assembled stack.
type Harness struct {
	D        *openstack.Deployment
	Lib      *fingerprint.Library
	Analyzer *core.Analyzer
	Plan     *faults.Plan
	Monitor  *agent.Monitor
	Engine   *rca.Engine
	// Sink receives every event the monitor emits. New sets it to
	// Analyzer.Ingest; a caller may wrap it before running.
	Sink agent.Sink

	finished bool
}

// CoreLibrary builds a fingerprint library over the hand-written core
// operations from their ground-truth API sequences (as offline learning
// would recover them).
func CoreLibrary() *fingerprint.Library {
	lib := fingerprint.NewLibrary()
	for _, op := range openstack.CoreOperations() {
		lib.AddAPIs(op.Name, op.Category.String(), op.APIs())
	}
	return lib
}

// New assembles a harness.
func New(opts Options) *Harness {
	if opts.Deploy.Seed == 0 {
		opts.Deploy.Seed = opts.Seed
	}
	if opts.Deploy.HeartbeatPeriod == 0 {
		opts.Deploy.HeartbeatPeriod = 10 * time.Second
	}
	lib := opts.Library
	if lib == nil {
		lib = CoreLibrary()
	}

	h := &Harness{
		D:    openstack.NewDeployment(opts.Deploy),
		Lib:  lib,
		Plan: faults.NewPlan(),
	}
	h.D.Injector = h.Plan
	h.Analyzer = core.New(lib, opts.Analyzer)
	h.Sink = h.Analyzer.Ingest
	h.Monitor = agent.NewMonitor("analyzer", func(ev trace.Event) { h.Sink(ev) }, h.D.GroundTruth)
	h.D.Fabric.Tap(h.Monitor.HandlePacket)

	if opts.WithRCA {
		src := rca.NewFabricSource(h.D.Fabric, h.D.Metrics)
		h.Engine = rca.NewEngine(lib, src, rca.Config{})
		h.Analyzer.SetRCA(h.Engine.Hook())
	}
	if opts.PollPeriod > 0 {
		h.D.Metrics.StartPolling(h.D.Fabric, h.D.Sim, opts.PollPeriod, func() bool { return h.finished })
	}
	return h
}

// Run advances the simulation by a virtual duration.
func (h *Harness) Run(d time.Duration) {
	h.D.Sim.RunUntil(h.D.Sim.Now().Add(d))
}

// Finish stops noise generation and polling, drains the simulation, and
// flushes any armed snapshots so trailing faults still report.
func (h *Harness) Finish() {
	h.finished = true
	h.D.StopNoise()
	h.D.Sim.Run()
	h.Analyzer.Flush()
}

// Reports is shorthand for the analyzer's reports.
func (h *Harness) Reports() []*core.Report { return h.Analyzer.Reports() }

// Truth is the operation instance that sent the report's offending
// message, joined by the message's wire identifiers.
func (h *Harness) Truth(rep *core.Report) (opID uint64, op string) {
	return h.D.GroundTruth(rep.Fault.ConnID, rep.Fault.MsgID)
}

// Hit reports whether the report's candidate set contains its truth.
func (h *Harness) Hit(rep *core.Report) bool {
	_, op := h.Truth(rep)
	return slices.Contains(rep.Candidates, op)
}
