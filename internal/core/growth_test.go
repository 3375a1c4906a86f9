package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
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
			if want := matchedAt(lib, cands, events(snap, step.Lo, step.Hi)); !slices.Equal(step.Matched, want) {
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

// events copies messages [lo, hi) of snap.
func events(snap *window.Snapshot, lo, hi int) []trace.Event {
	out := make([]trace.Event, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, *snap.At(i))
	}
	return out
}

// frozenFaults replays evs through a bare window (word-less Push) and
// returns each REST error with its frozen snapshot.
func frozenFaults(alpha int, evs []trace.Event) ([]trace.Event, []*window.Snapshot) {
	var faults []trace.Event
	var snaps []*window.Snapshot
	win := window.New(alpha)
	for _, ev := range evs {
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
	return faults, snaps
}

// naiveGrowth is Algorithm 2's β growth written out with none of the
// production shortcuts: the snapshot's pattern from symbol-table lookups,
// and at every step every candidate's program cut afresh and matched by
// MatchRelaxed over the step's Index.Slice — no bound programs, no early
// exit, no reuse of an unchanged view's verdict. It returns the verdict,
// its β, and every step as explain mode records it.
func naiveGrowth(lib *fingerprint.Library, cfg core.Config, cands fingerprint.Candidates, snap *window.Snapshot) ([]string, int, []tracestore.GrowthStep) {
	var pattern []rune
	var evIdx []int
	for i, ev := range events(snap, 0, snap.Len()) {
		if r, ok := lib.Table.Lookup(ev.API); ok && ev.Type.Request() && ev.API.Kind != trace.RPC {
			pattern = append(pattern, r)
			evIdx = append(evIdx, i)
		}
	}
	idx := fingerprint.NewIndex(pattern)
	pos := func(e int) int { // the first pattern position at or after event e
		p, _ := slices.BinarySearch(evIdx, e)
		return p
	}
	beta0 := max(int(cfg.C1*float64(cfg.Alpha)), 2)
	delta := max(int(cfg.C2*float64(cfg.Alpha)), 1)
	var steps []tracestore.GrowthStep
	var prev []string
	prevBeta := 0
	for beta := beta0; ; beta += 2 * delta {
		lo, hi := snap.ContextBounds(beta)
		view := idx.Slice(pos(lo), pos(hi))
		matched := []string{}
		for i := 0; i < cands.Len(); i++ {
			if name := cands.Name(i); !slices.Contains(matched, name) && cands.Program(i, true, true).MatchRelaxed(view) {
				matched = append(matched, name)
			}
		}
		stopped := len(prev) > 0 && len(matched) > len(prev)
		covered := snap.Covered(beta)
		steps = append(steps, tracestore.GrowthStep{Beta: beta, Lo: lo, Hi: hi, Pattern: view.Len(),
			Matched: append([]string(nil), matched...), Stopped: stopped, Covered: covered && !stopped})
		if stopped {
			return prev, prevBeta, steps
		}
		if covered {
			return matched, beta, steps
		}
		prev, prevBeta = matched, beta
	}
}

// TestGrowthMatchesNaiveLoop holds production detection — words, bound
// programs, the early exit and the reuse of a verdict when a β step adds
// no table rows — to naiveGrowth over the storm and the faulty bench
// streams: Candidates, Beta and Precision, and with evidence recorded,
// every growth step.
func TestGrowthMatchesNaiveLoop(t *testing.T) {
	lib := experiments.BenchLibrary()
	a := core.New(lib, core.Config{})
	cfg := a.Config()
	for name, evs := range map[string][]trace.Event{
		"storm":  experiments.StormBenchStream(20000),
		"faulty": experiments.FaultyBenchStream(60000),
	} {
		faults, snaps := frozenFaults(cfg.Alpha, evs)
		steps := 0
		for k, snap := range snaps {
			fast := a.Detect(faults[k], core.Operational, 0, snap)
			full, ev := a.DetectExplained(faults[k], core.Operational, snap)
			cands := lib.CandidatesForAPI(fast.OffendingAPI)
			if cands.Len() == 0 {
				continue
			}
			want, beta, growth := naiveGrowth(lib, cfg, cands, snap)
			precision := 0.0 // nothing blamed
			if n := len(want); n > 0 {
				precision = float64(cfg.TotalOps-n) / float64(cfg.TotalOps-1)
			}
			for _, rep := range []*core.Report{fast, full} {
				if !slices.Equal(rep.Candidates, want) || rep.Beta != beta || rep.Precision != precision {
					t.Fatalf("%s snapshot %d: %v at β=%d θ=%v, naive %v at β=%d θ=%v",
						name, k, rep.Candidates, rep.Beta, rep.Precision, want, beta, precision)
				}
			}
			got, _ := json.Marshal(ev.Growth)
			if w, _ := json.Marshal(growth); !bytes.Equal(got, w) {
				t.Fatalf("%s snapshot %d: growth\n%s\nnaive\n%s", name, k, got, w)
			}
			steps += len(growth)
		}
		if len(snaps) < 10 || steps < 2*len(snaps) {
			t.Fatalf("%s: %d snapshots, %d steps: the stream no longer exercises growth", name, len(snaps), steps)
		}
	}
}

// TestWordlessSnapshotsReportLikeIngest holds the two ways a snapshot
// gets its window words to one output: reports of an analyzer fed
// through Ingest (words pushed with each event) must marshal byte for
// byte like Detect's over the same stream frozen by the word-less
// window.Push, whose words Detect fills — for each matcher mode.
func TestWordlessSnapshotsReportLikeIngest(t *testing.T) {
	lib := experiments.BenchLibrary()
	evs := experiments.StormBenchStream(20000)
	for i := range evs {
		evs[i].Seq = uint64(i + 1) // ingest would number them so
	}
	for _, cfg := range []core.Config{
		{},
		{DisablePruneRPC: true},
		{StrictMatch: true},
		{UseCorrelationIDs: true},
	} {
		a := core.New(lib, cfg)
		a.IngestBatch(evs)
		a.Close()
		b := core.New(lib, cfg)
		faults, snaps := frozenFaults(b.Config().Alpha, evs)
		var reps []*core.Report
		for k, snap := range snaps {
			reps = append(reps, b.Detect(faults[k], core.Operational, 0, snap))
			snap.Release()
		}
		want, _ := json.Marshal(a.Reports())
		got, _ := json.Marshal(reps)
		if len(reps) < 50 || !bytes.Equal(got, want) {
			t.Fatalf("%+v: %d word-less reports differ from %d ingested", cfg, len(reps), len(a.Reports()))
		}
	}
}
