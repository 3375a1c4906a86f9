package core_test

import (
	"slices"
	"testing"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/window"
)

// TestGrowContextEarlyExitKeepsVerdict holds the β growth's early exit —
// a step stops matching once its matched set outgrows the previous
// step's — to the growth that evaluates every candidate at every step,
// over the frozen snapshots of the canonical Fig 8c faulty stream: the
// reported (Candidates, Beta) must be equal, and with evidence recorded
// every step's Matched must be the complete set, recomputed here from
// the step's view through the public matcher.
func TestGrowContextEarlyExitKeepsVerdict(t *testing.T) {
	lib := experiments.BenchLibrary()
	a := core.New(lib, core.Config{})
	var faults []trace.Event
	var snaps []*window.Snapshot
	win := window.New(a.Config().Alpha)
	for _, ev := range experiments.FaultyBenchStream(60000) {
		win.Push(ev)
		if ev.Faulty() && ev.Type == trace.RESTResponse {
			fault := ev
			win.Arm(func(snap *window.Snapshot) {
				faults = append(faults, fault)
				snaps = append(snaps, snap)
			})
		}
	}
	win.Flush()

	stopped := 0
	for k, snap := range snaps {
		fast := a.Detect(faults[k], core.Operational, 0, snap)
		full, ev := a.DetectExplained(faults[k], core.Operational, snap)
		if !slices.Equal(fast.Candidates, full.Candidates) || fast.Beta != full.Beta {
			t.Fatalf("snapshot %d: early exit gave %v at β=%d, every candidate %v at β=%d",
				k, fast.Candidates, fast.Beta, full.Candidates, full.Beta)
		}
		cands := lib.CandidatesForAPI(full.OffendingAPI)
		for _, step := range ev.Growth {
			if want := matchedAt(lib, cands, snap.Events[step.Lo:step.Hi]); !slices.Equal(step.Matched, want) {
				t.Fatalf("snapshot %d β=%d: step matched %v, want the complete set %v", k, step.Beta, step.Matched, want)
			}
			if step.Stopped {
				stopped++
			}
		}
	}
	if len(snaps) == 0 || stopped == 0 {
		t.Fatalf("%d snapshots, %d stopped by the stop rule: the stream no longer exercises the early exit", len(snaps), stopped)
	}
}

// matchedAt is one β step the slow way: the view's request-side symbols,
// RPCs pruned, then every candidate's truncated program matched against
// a fresh index, an operation counted once however many variants match.
func matchedAt(lib *fingerprint.Library, cands fingerprint.Candidates, view []trace.Event) []string {
	var pattern []rune
	for _, ev := range view {
		if r, ok := lib.Table.Lookup(ev.API); ok && ev.Type.Request() && ev.API.Kind != trace.RPC {
			pattern = append(pattern, r)
		}
	}
	idx := fingerprint.NewIndex(pattern)
	matched := []string{}
	for i := 0; i < cands.Len(); i++ {
		if name := cands.Name(i); !slices.Contains(matched, name) && cands.Program(i, true, true).MatchRelaxed(idx) {
			matched = append(matched, name)
		}
	}
	return matched
}
