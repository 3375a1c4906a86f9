package fingerprint

import (
	"strings"
	"testing"

	"gretel/internal/symbol"
	"gretel/internal/trace"
)

// explainLib builds a small library with overlapping operations plus the
// symbol table needed to render rejection reasons.
func explainLib() *Library {
	lib := NewLibrary()
	lib.AddAPIs("op-a", "Compute", []trace.API{get("/list"), post("/a1"), rpc("build"), post("/a2"), get("/status")})
	lib.AddAPIs("op-b", "Compute", []trace.API{get("/list"), post("/b1"), post("/a2"), get("/status")})
	lib.AddAPIs("op-c", "Storage", []trace.API{post("/c1"), get("/c2")})
	return lib
}

// snapshots generates deterministic symbol sequences exercising matches,
// order violations, absences, and empties: permutations and slices of
// the library's own fingerprints interleaved with noise symbols from a
// tiny LCG.
func snapshots(lib *Library) [][]rune {
	var fps []*Fingerprint
	for _, name := range []string{"op-a", "op-b", "op-c"} {
		fps = append(fps, lib.ByName(name))
	}
	noise := []rune{'x', 'y', 'z'}
	var out [][]rune
	state := uint32(12345)
	next := func(n int) int {
		state = state*1664525 + 1013904223
		return int(state>>16) % n
	}
	for _, fp := range fps {
		s := fp.Symbols
		out = append(out, s)            // verbatim
		out = append(out, s[:len(s)/2]) // truncated
		out = append(out, s[len(s)/2:]) // tail only
		rev := make([]rune, len(s))     // reversed (order violations)
		for i, r := range s {
			rev[len(s)-1-i] = r
		}
		out = append(out, rev)
		// Interleaved with noise and another operation's symbols.
		for trial := 0; trial < 8; trial++ {
			mix := make([]rune, 0, 3*len(s))
			other := fps[next(len(fps))]
			oi := 0
			for _, r := range s {
				for next(3) == 0 {
					mix = append(mix, noise[next(len(noise))])
				}
				if oi < len(other.Symbols) && next(2) == 0 {
					mix = append(mix, other.Symbols[oi])
					oi++
				}
				if next(4) != 0 { // sometimes drop the symbol entirely
					mix = append(mix, r)
				}
			}
			out = append(out, mix)
		}
	}
	out = append(out, nil) // empty snapshot
	return out
}

// TestExplainVerdictsEqualMatchVerdicts is the no-drift contract: every
// Explain* twin must return exactly the verdict of its production
// matcher, with a non-empty reason on rejection and score 1 on a match.
func TestExplainVerdictsEqualMatchVerdicts(t *testing.T) {
	lib := explainLib()
	type named struct {
		name string
		Program
	}
	var progs []named
	for _, fp := range lib.All() {
		progs = append(progs, named{fp.Name, fp.whole()})
		// Truncated (and pruned) programs: what detect actually matches.
		for _, r := range fp.Symbols {
			cands := lib.Candidates(r)
			for i := 0; i < cands.Len(); i++ {
				if cands.Name(i) == fp.Name {
					progs = append(progs,
						named{fp.Name, cands.Program(i, true, false)},
						named{fp.Name, cands.Program(i, true, true)})
				}
			}
		}
	}

	check := func(t *testing.T, mode string, got Explanation, want bool, name string, snapLen int) {
		t.Helper()
		if got.Matched != want {
			t.Fatalf("%s: explain verdict %v != match verdict %v (fp=%s snap=%d syms)",
				mode, got.Matched, want, name, snapLen)
		}
		if got.Matched {
			if got.Score != 1 {
				t.Fatalf("%s: matched but score %.2f != 1 (fp=%s)", mode, got.Score, name)
			}
			if got.Reason != "" {
				t.Fatalf("%s: matched but reason %q", mode, got.Reason)
			}
		} else {
			if got.Reason == "" {
				t.Fatalf("%s: rejected without a reason (fp=%s snap=%d syms)", mode, name, snapLen)
			}
			if got.Score < 0 || got.Score > 1 {
				t.Fatalf("%s: score %.2f out of range", mode, got.Score)
			}
		}
	}

	n := 0
	for _, snap := range snapshots(lib) {
		idx := NewIndex(snap)
		for _, p := range progs {
			check(t, "relaxed", p.ExplainRelaxed(idx, lib.Table), p.MatchRelaxed(idx), p.name, len(snap))
			check(t, "strict", p.ExplainStrict(snap, lib.Table), p.MatchStrict(snap), p.name, len(snap))
			check(t, "correlated", p.ExplainCorrelated(idx, lib.Table), p.MatchCorrelated(idx), p.name, len(snap))
			n += 3
		}
	}
	if n < 500 {
		t.Fatalf("only %d verdict pairs exercised; generator degenerated", n)
	}
}

// TestExplainReasonsNameAPIs verifies rejection reasons render symbols as
// API names through the table, not raw code points.
func TestExplainReasonsNameAPIs(t *testing.T) {
	lib := explainLib()
	opA := lib.ByName("op-a")
	// A snapshot holding everything except op-a's final symbol.
	snap := opA.Symbols[:len(opA.Symbols)-1]
	exp := opA.whole().ExplainRelaxed(NewIndex(snap), lib.Table)
	if exp.Matched {
		t.Fatal("should reject: final symbol absent")
	}
	if !strings.Contains(exp.Reason, "GET /status") {
		t.Fatalf("reason should name the missing API: %q", exp.Reason)
	}
	if strings.Contains(exp.Reason, "U+") {
		t.Fatalf("reason leaked a raw code point: %q", exp.Reason)
	}

	// Without a table the raw code point is the fallback.
	var noTbl *symbol.Table
	exp = opA.whole().ExplainRelaxed(NewIndex(snap), noTbl)
	if !strings.Contains(exp.Reason, "U+") {
		t.Fatalf("tableless reason should fall back to code points: %q", exp.Reason)
	}
}
