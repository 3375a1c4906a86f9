package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gretel/internal/scenario"
	"gretel/internal/tempest"
	"gretel/internal/tracestore"
)

// ExplainResult holds one explain-mode precision run: the aggregate
// cell, the finished harness (its reports and the ground truth they are
// graded by), and the evidence-trace store behind them.
type ExplainResult struct {
	Cell    PrecisionCell
	Harness *scenario.Harness
	Store   *tracestore.Store
}

// Explain reruns the Fig. 8a scenario shape — identical concurrent
// faulty operations against background parallelism — with evidence
// tracing on, so every injected fault's localization decision can be
// reconstructed: which operation was blamed, which fingerprint won, and
// why the runners-up were rejected.
func Explain(seed int64, parallel, faults int) ExplainResult {
	c := tempest.NewCatalog(seed)
	run := fig8aRun(seed, c, GroundTruthLibrary(c), parallel, faults)
	run.TraceStore = tracestore.New(0)
	h := run.drive(run.harness())
	return ExplainResult{Cell: summarize(h, parallel, faults), Harness: h, Store: run.TraceStore}
}

// FormatExplain renders one line block per fault report: the blamed
// operation (and whether it is the ground truth), the winning
// fingerprint's match, and the highest-scoring rejected candidate with
// its concrete rejection reason.
func FormatExplain(res ExplainResult) string {
	var b strings.Builder
	reps := res.Harness.Reports()
	fmt.Fprintf(&b, "%d injected faults, %d reports, %d evidence traces (%d evicted)\n\n",
		res.Cell.Faults, len(reps), res.Store.Stored(), res.Store.Evicted())
	for _, rep := range reps {
		tr := res.Store.Get(rep.TraceID)
		fmt.Fprintf(&b, "trace %-4d %s fault at %v\n", rep.TraceID, rep.Kind, rep.OffendingAPI)
		if tr == nil {
			fmt.Fprintf(&b, "  (trace evicted from store)\n\n")
			continue
		}
		verdict := "MISS"
		if res.Harness.Hit(rep) {
			verdict = "hit"
		}
		_, truth := res.Harness.Truth(rep)
		fmt.Fprintf(&b, "  blamed: %d candidate(s) at beta=%d precision=%.2f%% — ground truth %s (%s)\n",
			len(rep.Candidates), rep.Beta, rep.Precision*100, truth, verdict)
		if win := winningCandidate(tr, truth); win != nil {
			fmt.Fprintf(&b, "  winning fingerprint: %s (len %d, %d/%d mandatory symbols, %d omitted)\n",
				win.Name, win.FPLen, win.MandatoryHit, win.MandatoryTotal, win.Omitted)
		} else {
			fmt.Fprintf(&b, "  winning fingerprint: none matched\n")
		}
		if ru := runnerUp(tr); ru != nil {
			fmt.Fprintf(&b, "  runner-up: %s (score %.2f) rejected: %s\n", ru.Name, ru.Score, ru.Reason)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// winningCandidate picks the matched candidate to headline: the ground
// truth when it matched, else the first match in candidate order.
func winningCandidate(tr *tracestore.Trace, truthOp string) *tracestore.Candidate {
	var first *tracestore.Candidate
	for i := range tr.Candidates {
		c := &tr.Candidates[i]
		if !c.Matched {
			continue
		}
		if c.Name == truthOp {
			return c
		}
		if first == nil {
			first = c
		}
	}
	return first
}

// runnerUp picks the closest rejected candidate — highest score, name
// as tiebreak so the output is deterministic.
func runnerUp(tr *tracestore.Trace) *tracestore.Candidate {
	var rejected []*tracestore.Candidate
	for i := range tr.Candidates {
		if c := &tr.Candidates[i]; !c.Matched && c.Reason != "" {
			rejected = append(rejected, c)
		}
	}
	if len(rejected) == 0 {
		return nil
	}
	sort.Slice(rejected, func(i, j int) bool {
		if rejected[i].Score != rejected[j].Score {
			return rejected[i].Score > rejected[j].Score
		}
		return rejected[i].Name < rejected[j].Name
	})
	return rejected[0]
}
