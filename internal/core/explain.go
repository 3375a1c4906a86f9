// Evidence assembly for explain mode: when an evidence-trace store is
// installed (SetExplain), every detection also records the full
// Algorithm 2 decision — the frozen window, the span tree of paired
// exchanges in the final context buffer, every candidate's score and
// rejection reason, and each β growth step. All of it is assembled
// inside detect, on the detect workers, from the snapshot and immutable
// analyzer state — the ingest hot path never sees any of this, and with
// no store installed detect pays a single nil check. No identifier
// stitching happens here: the span tree already marks the fault's own
// exchange, and stitching beyond it would key on ground truth.
//
// Every recorded value derives from event (virtual) time, receiver
// sequence numbers, and deterministic walks, so traces are identical
// across DetectWorkers settings (the store numbers each trace when
// finish stores it, in fault-arrival order).
package core

import (
	"time"

	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/window"
)

// SetExplain installs the evidence-trace store, enabling explain mode.
// Pass nil to disable (the default): disabled, no evidence work happens
// anywhere and reports are byte-identical to a build without the
// subsystem.
func (a *Analyzer) SetExplain(s *tracestore.Store) { a.explain = s }

// ExplainStore returns the installed evidence-trace store, or nil.
func (a *Analyzer) ExplainStore() *tracestore.Store { return a.explain }

// SetRCAExplain installs the explaining RCA hook: like SetRCA, but the
// hook also returns the evidence (nodes examined, metric windows,
// watcher statuses) behind the verdict, which is attached to the
// report's evidence trace. It shares one slot with SetRCA: the last call
// wins.
func (a *Analyzer) SetRCAExplain(fn func(*Report) ([]RootCause, *tracestore.RCAEvidence)) {
	a.rca = fn
}

// newEvidence starts a report's evidence trace: identity, matcher
// configuration, and the frozen-window summary.
func (a *Analyzer) newEvidence(faultEv trace.Event, kind FaultKind, latency time.Duration, snap *window.Snapshot) *tracestore.Trace {
	future := snap.Len() - 1 - snap.FaultIndex
	ev := &tracestore.Trace{
		Kind:      kind.String(),
		FaultSeq:  faultEv.Seq,
		FaultTime: faultEv.Time,
		LatencyMs: latency.Seconds() * 1000,
		RPCPruned: !a.cfg.DisablePruneRPC,
		Window: tracestore.Window{
			Alpha:        a.cfg.Alpha,
			Events:       snap.Len(),
			FaultIndex:   snap.FaultIndex,
			PastEvents:   snap.FaultIndex,
			FutureEvents: future,
			FirstSeq:     snap.At(0).Seq,
			LastSeq:      snap.At(snap.Len() - 1).Seq,
			// Fewer future slides than α/2 means the snapshot fired on
			// Flush (end of stream) rather than filling naturally.
			Truncated: future < a.cfg.Alpha/2,
		},
	}
	return ev
}

// recordErrors copies the snapshot's error events into the evidence.
func recordErrors(ev *tracestore.Trace, errors []trace.Event) {
	ev.Errors = make([]tracestore.EventRef, 0, len(errors))
	for i := range errors {
		e := &errors[i]
		ev.Errors = append(ev.Errors, tracestore.EventRef{
			Seq: e.Seq, Time: e.Time, Type: e.Type.String(), API: e.API.String(),
			Node: e.SrcNode, Status: e.Status, Error: e.ErrorText,
		})
	}
}

// explainCandidates re-runs every candidate against the FINAL context
// buffer through the explaining matchers, which share their walks with
// the production matchers — the verdicts reproduce rep.Candidates
// exactly (growContext returns the set matched at the β it returns).
func (a *Analyzer) explainCandidates(ev *tracestore.Trace, cands fingerprint.Candidates, truncate bool, idx fingerprint.Index, corrFiltered bool) {
	variants := make(map[string]int, cands.Len())
	ev.Candidates = make([]tracestore.Candidate, 0, cands.Len())
	for i := 0; i < cands.Len(); i++ {
		name, p := cands.Name(i), cands.Program(i, truncate, !a.cfg.DisablePruneRPC)
		variant := variants[name]
		variants[name] = variant + 1
		c := tracestore.Candidate{
			Name: name, Variant: variant,
			FPLen: p.Len(), Truncated: truncate,
		}
		if p.Len() == 0 {
			c.Reason = "empty fingerprint after truncation and RPC pruning"
			ev.Candidates = append(ev.Candidates, c)
			continue
		}
		var exp fingerprint.Explanation
		if corrFiltered {
			exp = p.ExplainCorrelated(idx, a.lib.Table)
		} else {
			exp = p.ExplainRelaxed(idx, a.lib.Table)
		}
		c.Matched = exp.Matched
		c.Score = exp.Score
		c.MandatoryHit = exp.Satisfied
		c.MandatoryTotal = exp.MandatoryTotal
		c.Omitted = exp.Omitted
		c.Reason = exp.Reason
		ev.Candidates = append(ev.Candidates, c)
	}
}

// finalizeEvidence fills everything known once matching has settled:
// the verdict and the span tree over the final context buffer, messages
// [lo, hi) of the snapshot.
func (a *Analyzer) finalizeEvidence(ev *tracestore.Trace, rep *Report, snap *window.Snapshot, lo, hi int) {
	ev.OffendingAPI = rep.OffendingAPI.String()
	ev.DetectedAt = rep.DetectedAt
	ev.Matched = append([]string(nil), rep.Candidates...)
	ev.Beta = rep.Beta
	ev.Precision = rep.Precision
	ev.Spans = buildSpans(snap, lo, hi, rep.Fault.Seq)
}

// openSpan tracks an in-flight REST exchange during the span-tree walk,
// with the metadata parent inference needs.
type openSpan struct {
	idx     int
	corrID  string
	dstNode string
}

// buildSpans pairs the context buffer's messages, [lo, hi) of snap, read
// in place, into a span tree:
// REST exchanges by connection, RPC exchanges by message id, casts as
// points. An exchange nests under the innermost open REST span stamped
// with its correlation id when one is present, else under the innermost
// open REST span served by the node that issued it — never under
// ground-truth operation identity, which the detector must not read.
// Half-exchanges whose other side fell outside the buffer stay as
// unpaired point spans, so every message is represented.
func buildSpans(snap *window.Snapshot, lo, hi int, faultSeq uint64) []tracestore.Span {
	spans := make([]tracestore.Span, 0, (hi-lo)/2+1)
	openREST := make(map[uint64]int) // ConnID -> span index
	openRPC := make(map[string]int)  // MsgID -> span index
	open := make([]openSpan, 0, 8)   // open REST spans, outermost first

	closeOpen := func(idx int) {
		for i := len(open) - 1; i >= 0; i-- {
			if open[i].idx == idx {
				open = append(open[:i], open[i+1:]...)
				return
			}
		}
	}
	parentFor := func(e *trace.Event) int {
		if e.CorrID != "" {
			for i := len(open) - 1; i >= 0; i-- {
				if open[i].corrID == e.CorrID {
					return open[i].idx
				}
			}
		}
		for i := len(open) - 1; i >= 0; i-- {
			if open[i].dstNode != "" && open[i].dstNode == e.SrcNode {
				return open[i].idx
			}
		}
		return -1
	}
	point := func(e *trace.Event, kind, node string, unpaired bool) int {
		idx := len(spans)
		spans = append(spans, tracestore.Span{
			ID: idx, Parent: parentFor(e), API: e.API.String(), Kind: kind,
			Node: node, StartSeq: e.Seq, EndSeq: e.Seq, Start: e.Time,
			Status: e.Status, Error: e.ErrorText,
			Fault: e.Seq == faultSeq, Unpaired: unpaired,
		})
		return idx
	}

	for i := lo; i < hi; i++ {
		e := snap.At(i)
		switch e.Type {
		case trace.RESTRequest:
			idx := len(spans)
			spans = append(spans, tracestore.Span{
				ID: idx, Parent: parentFor(e), API: e.API.String(), Kind: "REST",
				Node: e.DstNode, StartSeq: e.Seq, EndSeq: e.Seq, Start: e.Time,
				Fault: e.Seq == faultSeq, Unpaired: true,
			})
			openREST[e.ConnID] = idx
			open = append(open, openSpan{idx: idx, corrID: e.CorrID, dstNode: e.DstNode})
		case trace.RESTResponse:
			if idx, ok := openREST[e.ConnID]; ok {
				sp := &spans[idx]
				sp.EndSeq = e.Seq
				sp.Duration = e.Time.Sub(sp.Start)
				sp.Status = e.Status
				sp.Error = e.ErrorText
				sp.Unpaired = false
				sp.Fault = sp.Fault || e.Seq == faultSeq
				delete(openREST, e.ConnID)
				closeOpen(idx)
			} else {
				// Request slid out of the buffer: the response alone still
				// carries the status, node, and fault marker.
				spans = append(spans, tracestore.Span{
					ID: len(spans), Parent: -1, API: e.API.String(), Kind: "REST",
					Node: e.SrcNode, StartSeq: e.Seq, EndSeq: e.Seq, Start: e.Time,
					Status: e.Status, Error: e.ErrorText,
					Fault: e.Seq == faultSeq, Unpaired: true,
				})
			}
		case trace.RPCCall:
			idx := len(spans)
			spans = append(spans, tracestore.Span{
				ID: idx, Parent: parentFor(e), API: e.API.String(), Kind: "RPC",
				Node: e.DstNode, StartSeq: e.Seq, EndSeq: e.Seq, Start: e.Time,
				Fault: e.Seq == faultSeq, Unpaired: true,
			})
			if e.MsgID != "" {
				openRPC[e.MsgID] = idx
			}
		case trace.RPCReply:
			if idx, ok := openRPC[e.MsgID]; ok {
				sp := &spans[idx]
				sp.EndSeq = e.Seq
				sp.Duration = e.Time.Sub(sp.Start)
				sp.Status = e.Status
				sp.Error = e.ErrorText
				sp.Unpaired = false
				sp.Fault = sp.Fault || e.Seq == faultSeq
				delete(openRPC, e.MsgID)
			} else {
				point(e, "RPC", e.SrcNode, true)
			}
		case trace.RPCCast:
			// Fire-and-forget: a point span by design, not an unpaired one.
			point(e, "RPC-cast", e.DstNode, false)
		}
	}
	return spans
}
