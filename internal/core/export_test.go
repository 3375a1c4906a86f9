package core

import (
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/window"
)

// DetectExplained is Detect with the evidence trace recorded, which makes
// growContext evaluate every candidate at every β step.
func (a *Analyzer) DetectExplained(fault trace.Event, kind FaultKind, snap *window.Snapshot) (*Report, *tracestore.Trace) {
	rep := a.detect(&a.scratch, fault, kind, 0, snap, a.snapWords(snap), true)
	return rep, rep.evidence
}

// LatBatch is the latency stage's batch size, for tests that place a
// batch boundary.
const LatBatch = latBatch

// IngestInline is Ingest as it was before the latency stage, the
// reference the stage is tested against: each paired latency folds into
// its API's summary and detector right after its push, and an alarm
// arms a performance snapshot at that push.
func (a *Analyzer) IngestInline(ev trace.Event) {
	rec, latency, ok := a.receive(&ev)
	if !ok {
		return
	}
	if rec.lat == nil {
		rec.lat = newAPILat(a.cfg.Latency)
	}
	al := rec.lat
	v := latency.Seconds()
	al.sum.Observe(v)
	hits := al.det.Observe(ev.Time, v)
	if len(hits) > 0 {
		a.Stats.PerfAlarms += uint64(len(hits))
		if a.cfg.PerfDetection && al.due(ev.Time) {
			a.armSnapshot(Performance, latency, 0)
		}
	}
}

// ArmWindow arms a freeze point at the newest message of the analyzer's
// window, as a fault does (window.Dual.Arm), and WindowPushed is the
// window's push count: together they let a test read back the words
// ingest pushed.
func (a *Analyzer) ArmWindow(onReady func(*window.Snapshot)) { a.win.Arm(onReady) }
func (a *Analyzer) WindowPushed() uint64                     { return a.win.Pushed() }
