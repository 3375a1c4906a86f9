package core

import (
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/window"
)

// DetectExplained is Detect with the evidence trace recorded, which makes
// growContext evaluate every candidate at every β step.
func (a *Analyzer) DetectExplained(fault trace.Event, kind FaultKind, snap *window.Snapshot) (*Report, *tracestore.Trace) {
	rep := a.detect(&a.scratch, fault, kind, 0, snap, a.snapWords(snap), 1)
	return rep, rep.evidence
}
