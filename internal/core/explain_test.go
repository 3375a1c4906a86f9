package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"gretel/internal/tracestore"
)

// TestExplainTraceReconstructsDecision is the tentpole contract: every
// report produced in explain mode resolves to a stored evidence trace
// whose window, growth steps, candidate scores, and rejection reasons
// fully reconstruct the Algorithm 2 decision.
func TestExplainTraceReconstructsDecision(t *testing.T) {
	store := tracestore.New(0)
	a := driveFaultyExplain(Config{Alpha: 32}, store)
	reps := a.Reports()
	if len(reps) == 0 {
		t.Fatal("no reports produced")
	}
	if store.Len() != len(reps) {
		t.Fatalf("store holds %d traces for %d reports", store.Len(), len(reps))
	}

	for i, rep := range reps {
		if rep.TraceID == 0 {
			t.Fatalf("report %d has no trace id", i)
		}
		if rep.TraceID != uint64(i+1) {
			t.Fatalf("report %d trace id = %d, want fault-arrival order %d", i, rep.TraceID, i+1)
		}
		tr := store.Get(rep.TraceID)
		if tr == nil {
			t.Fatalf("report %d: trace %d not stored", i, rep.TraceID)
		}

		// Identity and verdict match the report exactly.
		if tr.OffendingAPI != rep.OffendingAPI.String() || tr.Kind != rep.Kind.String() {
			t.Fatalf("trace %d identity: %s/%s vs report %s/%s",
				tr.ID, tr.Kind, tr.OffendingAPI, rep.Kind, rep.OffendingAPI)
		}
		if tr.FaultSeq != rep.Fault.Seq || !tr.FaultTime.Equal(rep.Fault.Time) {
			t.Fatalf("trace %d fault identity differs", tr.ID)
		}
		if !reflect.DeepEqual(tr.Matched, rep.Candidates) {
			t.Fatalf("trace %d matched %v != report candidates %v", tr.ID, tr.Matched, rep.Candidates)
		}
		if tr.Beta != rep.Beta || tr.Precision != rep.Precision {
			t.Fatalf("trace %d beta/precision %d/%.3f != report %d/%.3f",
				tr.ID, tr.Beta, tr.Precision, rep.Beta, rep.Precision)
		}

		// The candidate table reproduces the verdict: the matched names
		// are exactly the report's candidate set, every rejected
		// candidate carries a concrete reason, and scores are sane.
		var matchedNames []string
		for _, c := range tr.Candidates {
			if c.Matched {
				matchedNames = append(matchedNames, c.Name)
				if c.Score != 1 {
					t.Fatalf("trace %d: matched %s score %.2f != 1", tr.ID, c.Name, c.Score)
				}
			} else {
				if c.Reason == "" {
					t.Fatalf("trace %d: rejected %s without a reason", tr.ID, c.Name)
				}
				if c.Score < 0 || c.Score >= 1 {
					t.Fatalf("trace %d: rejected %s score %.2f", tr.ID, c.Name, c.Score)
				}
			}
		}
		wantNames := append([]string(nil), rep.Candidates...)
		sort.Strings(matchedNames)
		sort.Strings(wantNames)
		if !reflect.DeepEqual(matchedNames, wantNames) {
			t.Fatalf("trace %d candidate verdicts %v != report %v", tr.ID, matchedNames, wantNames)
		}

		// The growth log reconstructs the β loop: monotonically growing
		// steps ending in either coverage or the stop rule, and the step
		// the verdict came from carries exactly the verdict's set.
		if rep.Kind == Operational {
			if len(tr.Growth) == 0 {
				t.Fatalf("trace %d: no growth steps", tr.ID)
			}
			verdictStep := -1
			for j, g := range tr.Growth {
				if j > 0 && g.Beta <= tr.Growth[j-1].Beta {
					t.Fatalf("trace %d: growth beta not increasing at step %d", tr.ID, j)
				}
				if g.Stopped && j != len(tr.Growth)-1 {
					t.Fatalf("trace %d: stop-rule step %d is not last", tr.ID, j)
				}
				if !g.Stopped && g.Beta == tr.Beta {
					verdictStep = j
				}
			}
			if verdictStep < 0 {
				t.Fatalf("trace %d: no growth step at verdict beta %d", tr.ID, tr.Beta)
			}
			if !reflect.DeepEqual(tr.Growth[verdictStep].Matched, rep.Candidates) {
				t.Fatalf("trace %d: verdict step matched %v != %v",
					tr.ID, tr.Growth[verdictStep].Matched, rep.Candidates)
			}
			last := tr.Growth[len(tr.Growth)-1]
			if !last.Stopped && !last.Covered {
				t.Fatalf("trace %d: growth ended without coverage or stop rule", tr.ID)
			}
		}

		// The window and span tree hold the evidence events: a span for
		// the fault, every span inside the snapshot's sequence bounds,
		// and the error list non-empty for operational faults.
		if tr.Window.Events == 0 || tr.Window.FirstSeq == 0 {
			t.Fatalf("trace %d: empty window summary %+v", tr.ID, tr.Window)
		}
		if len(tr.Spans) == 0 {
			t.Fatalf("trace %d: no spans", tr.ID)
		}
		faultSpans := 0
		for _, sp := range tr.Spans {
			if sp.StartSeq < tr.Window.FirstSeq || sp.EndSeq > tr.Window.LastSeq {
				t.Fatalf("trace %d: span %d [%d..%d] outside window [%d..%d]",
					tr.ID, sp.ID, sp.StartSeq, sp.EndSeq, tr.Window.FirstSeq, tr.Window.LastSeq)
			}
			if sp.Parent >= sp.ID {
				t.Fatalf("trace %d: span %d parent %d not earlier", tr.ID, sp.ID, sp.Parent)
			}
			if sp.Fault {
				faultSpans++
			}
		}
		if faultSpans != 1 {
			t.Fatalf("trace %d: %d fault spans, want 1", tr.ID, faultSpans)
		}
		if rep.Kind == Operational && len(tr.Errors) == 0 {
			t.Fatalf("trace %d: no error events recorded", tr.ID)
		}
	}
}

// TestExplainOnLeavesVerdictsUntouched compares a run with explain on
// against the plain run: identical reports except for the trace link.
func TestExplainOnLeavesVerdictsUntouched(t *testing.T) {
	plain := driveFaulty(Config{Alpha: 32})
	explained := driveFaultyExplain(Config{Alpha: 32}, tracestore.New(0))
	rp, re := plain.Reports(), explained.Reports()
	if len(rp) != len(re) || len(rp) == 0 {
		t.Fatalf("report counts: plain=%d explained=%d", len(rp), len(re))
	}
	for i := range rp {
		cp := *re[i]
		cp.TraceID = 0 // the only permitted difference
		if !reflect.DeepEqual(*rp[i], cp) {
			t.Fatalf("report %d differs beyond TraceID:\nplain:     %+v\nexplained: %+v", i, *rp[i], cp)
		}
	}
	if plain.Stats != explained.Stats {
		t.Fatalf("stats differ: %+v vs %+v", plain.Stats, explained.Stats)
	}
}

// TestExplainDeterministicAcrossWorkers extends the pipeline determinism
// contract to evidence traces: the stores from an inline run and an
// 8-worker run must serialize byte-identically.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	s0 := tracestore.New(0)
	s8 := tracestore.New(0)
	inline := driveFaultyExplain(Config{Alpha: 32}, s0)
	parallel := driveFaultyExplain(Config{Alpha: 32, DetectWorkers: 8, DetectBacklog: 2}, s8)

	ri, rp := inline.Reports(), parallel.Reports()
	if len(ri) == 0 || len(ri) != len(rp) {
		t.Fatalf("report counts differ: inline=%d parallel=%d", len(ri), len(rp))
	}
	for i := range ri {
		if !reflect.DeepEqual(*ri[i], *rp[i]) {
			t.Fatalf("report %d differs (TraceID %d vs %d)", i, ri[i].TraceID, rp[i].TraceID)
		}
	}

	var b0, b8 bytes.Buffer
	if err := tracestore.WriteNDJSON(&b0, s0.All()); err != nil {
		t.Fatal(err)
	}
	if err := tracestore.WriteNDJSON(&b8, s8.All()); err != nil {
		t.Fatal(err)
	}
	if b0.Len() == 0 {
		t.Fatal("no traces serialized")
	}
	if !bytes.Equal(b0.Bytes(), b8.Bytes()) {
		t.Fatal("evidence traces differ between DetectWorkers:0 and DetectWorkers:8")
	}
}

// TestExplainRCAEvidenceAttached verifies the explaining RCA hook's
// evidence lands on the stored trace alongside the stringified verdict.
func TestExplainRCAEvidenceAttached(t *testing.T) {
	store := tracestore.New(0)
	a := newAnalyzer(Config{Alpha: 32})
	a.SetExplain(store)
	a.SetRCAExplain(func(r *Report) ([]RootCause, *tracestore.RCAEvidence) {
		return []RootCause{{Node: "n1", Kind: "resource", Detail: "low disk"}},
			&tracestore.RCAEvidence{Nodes: []tracestore.RCANode{{Node: "n1", Stage: "error", Up: true}}}
	})
	s := &stream{a: a}
	s.rest(post("/a2"), 500, 1, "op-a")
	s.filler(40)
	a.Close()

	reps := a.Reports()
	if len(reps) == 0 {
		t.Fatal("no report")
	}
	tr := store.Get(reps[0].TraceID)
	if tr == nil {
		t.Fatal("no trace stored")
	}
	if tr.RCA == nil || len(tr.RCA.Nodes) != 1 || tr.RCA.Nodes[0].Node != "n1" {
		t.Fatalf("RCA evidence = %+v", tr.RCA)
	}
	if len(tr.RootCauses) != 1 || tr.RootCauses[0] != reps[0].RootCauses[0].String() {
		t.Fatalf("root causes = %v", tr.RootCauses)
	}
}

// TestRCAHookLastSetWins: SetRCA and SetRCAExplain fill one slot, so
// whichever was called last judges the report.
func TestRCAHookLastSetWins(t *testing.T) {
	plain := func(r *Report) []RootCause { return []RootCause{{Node: "plain"}} }
	explaining := func(r *Report) ([]RootCause, *tracestore.RCAEvidence) {
		return []RootCause{{Node: "explaining"}}, &tracestore.RCAEvidence{}
	}
	for _, explainLast := range []bool{false, true} {
		store := tracestore.New(0)
		a := newAnalyzer(Config{Alpha: 32})
		a.SetExplain(store)
		if explainLast {
			a.SetRCA(plain)
			a.SetRCAExplain(explaining)
		} else {
			a.SetRCAExplain(explaining)
			a.SetRCA(plain)
		}
		s := &stream{a: a}
		s.rest(post("/a2"), 500, 1, "op-a")
		s.filler(40)
		a.Close()
		rep := a.Reports()[0]
		want := map[bool]string{false: "plain", true: "explaining"}[explainLast]
		if len(rep.RootCauses) != 1 || rep.RootCauses[0].Node != want {
			t.Errorf("explaining hook set last = %v: root causes %v, want %s's", explainLast, rep.RootCauses, want)
		}
		if hasEv := store.Get(rep.TraceID).RCA != nil; hasEv != explainLast {
			t.Errorf("explaining hook set last = %v: trace carries RCA evidence = %v", explainLast, hasEv)
		}
	}
}
