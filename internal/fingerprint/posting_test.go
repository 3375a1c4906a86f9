package fingerprint_test

import (
	"slices"
	"testing"

	"gretel/internal/experiments"
)

// TestPostingBoundsMatchPrograms holds the binding records the library
// compiles into its posting entries (and, for whole programs, into each
// fingerprint's forms) to the programs Candidates.Program cuts: for every
// posting list of the benchmark library, every entry, truncated or whole,
// RPC-pruned or not, the mandatory run and final symbol ResetBound binds
// must be the cut program's.
func TestPostingBoundsMatchPrograms(t *testing.T) {
	lib := experiments.BenchLibrary()
	lists, entries, empty := 0, 0, 0
	for _, api := range lib.Table.APIs() {
		cands := lib.CandidatesForAPI(api)
		if cands.Len() == 0 {
			continue
		}
		lists++
		for i := 0; i < cands.Len(); i++ {
			entries++
			for _, truncate := range []bool{true, false} {
				for _, prune := range []bool{true, false} {
					mand, final, ok := cands.BoundRun(i, truncate, prune)
					wMand, wFinal, wOK := cands.Program(i, truncate, prune).MandFinal()
					if ok != wOK || final != wFinal || !slices.Equal(mand, wMand) {
						t.Fatalf("%v entry %d (%s) truncate=%v prune=%v: bound %q %q %v, program %q %q %v",
							api, i, cands.Name(i), truncate, prune, mand, final, ok, wMand, wFinal, wOK)
					}
					if !ok {
						empty++
					}
				}
			}
		}
	}
	if lists < 100 || entries < 1000 || empty == 0 {
		t.Fatalf("%d posting lists, %d entries, %d empty programs: the library no longer exercises every case", lists, entries, empty)
	}
	t.Logf("%d posting lists, %d entries, %d empty programs", lists, entries, empty)
}
