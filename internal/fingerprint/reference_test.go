// The naive reference the compiled matcher (program.go) is differentially
// tested against: what the analyzer did per fault before the library was
// compiled once — a Truncate copy, a WithoutRPC copy, a fresh mandatory()
// list per call — and linear scans over the raw pattern in place of the
// occurrence index; beside it, the binary-search walk the next-occurrence
// table replaced. They live under _test.go on purpose: the product has
// one matcher, and these are its oracles.

package fingerprint

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gretel/internal/symbol"
	"gretel/internal/trace"
)

// WithoutRPC returns a copy with RPC symbols removed — the §6 matching
// optimization ("GRETEL removes symbols corresponding to RPC messages to
// speed up operation detection").
func (f *Fingerprint) WithoutRPC() *Fingerprint {
	out := &Fingerprint{Name: f.Name, Category: f.Category}
	for i, api := range f.APIs {
		if api.Kind == trace.RPC {
			continue
		}
		out.APIs = append(out.APIs, api)
		out.Symbols = append(out.Symbols, f.Symbols[i])
		out.state = append(out.state, f.state[i])
	}
	return out
}

// Truncate returns the fingerprint cut at the LAST occurrence of the
// offending symbol, inclusive (Algorithm 2's
// TRUNCATE_OPERATION_FINGERPRINTS). It returns nil if the symbol does not
// occur.
func (f *Fingerprint) Truncate(offending rune) *Fingerprint {
	last := -1
	for i, r := range f.Symbols {
		if r == offending {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	return &Fingerprint{
		Name:     f.Name,
		Category: f.Category,
		APIs:     f.APIs[:last+1],
		Symbols:  f.Symbols[:last+1],
		state:    f.state[:last+1],
	}
}

// mandatory returns the symbols that a relaxed match must find in order:
// the state-change literals, always including the final symbol (the
// offending API for truncated fingerprints).
func (f *Fingerprint) mandatory() []rune {
	var out []rune
	for i, r := range f.Symbols {
		if f.state[i] || i == len(f.Symbols)-1 {
			out = append(out, r)
		}
	}
	return out
}

// indexFrom returns the first position of r in s at or after j, or -1.
func indexFrom(s []rune, r rune, j int) int {
	for k := j; k < len(s); k++ {
		if s[k] == r {
			return k
		}
	}
	return -1
}

// naiveOrdered is the relaxed ordered walk: a mandatory symbol absent
// from s is tolerated, unless it is the final one.
func (f *Fingerprint) naiveOrdered(s []rune) bool {
	pattern := f.mandatory()
	if len(pattern) == 0 {
		return false
	}
	j := 0
	for i, p := range pattern {
		k := indexFrom(s, p, j)
		if k >= 0 {
			j = k + 1
			continue
		}
		if indexFrom(s, p, 0) >= 0 {
			return false // present, but only before the match point
		}
		if i == len(pattern)-1 {
			return false
		}
	}
	return true
}

// naiveStrict is the full-sequence subsequence test; like the analyzer,
// it never matches an empty fingerprint.
func (f *Fingerprint) naiveStrict(s []rune) bool {
	i := 0
	for _, r := range s {
		if i < len(f.Symbols) && r == f.Symbols[i] {
			i++
		}
	}
	return len(f.Symbols) > 0 && i == len(f.Symbols)
}

// naiveCorrelated is the coverage test of the correlation-id extension.
func (f *Fingerprint) naiveCorrelated(s []rune) bool {
	if len(s) == 0 || len(f.Symbols) == 0 || indexFrom(s, f.Symbols[len(f.Symbols)-1], 0) < 0 {
		return false
	}
	set := f.SymbolSet()
	covered := 0
	for _, r := range s {
		if set[r] {
			covered++
		}
	}
	return float64(covered) >= corrCoverage*float64(len(s))
}

// searchIndex is the occurrence index the matcher walked before the
// next-occurrence table: each symbol's sorted positions in the pattern.
type searchIndex map[rune][]int

func newSearchIndex(pattern []rune) searchIndex {
	si := searchIndex{}
	for i, r := range pattern {
		si[r] = append(si[r], i)
	}
	return si
}

// relaxed is the binary-search relaxed walk over positions [lo, hi): one
// search per mandatory symbol for its first occurrence at or after the
// match point.
func (si searchIndex) relaxed(f *Fingerprint, lo, hi int) bool {
	pattern := f.mandatory()
	if len(pattern) == 0 {
		return false
	}
	j := lo
	for i, sym := range pattern {
		ps := si[sym]
		at := sort.SearchInts(ps, j)
		if at < len(ps) && ps[at] < hi {
			j = ps[at] + 1
			continue
		}
		if at > 0 && ps[at-1] >= lo {
			return false // present, but only before the match point
		}
		if i == len(pattern)-1 {
			return false
		}
	}
	return true
}

// referenceProgram is what the analyzer used to build per fault for one
// candidate: truncate at the offending symbol, then prune.
func referenceProgram(fp *Fingerprint, offending rune, truncate, pruneRPC bool) *Fingerprint {
	ref := fp
	if truncate {
		ref = fp.Truncate(offending)
	}
	if pruneRPC {
		ref = ref.WithoutRPC()
	}
	return ref
}

// fuzzLibrary draws a library of 1..6 fingerprints over a small alphabet
// so every interesting shape is common: same-name variants, RPC symbols,
// repeated symbols (so the offending symbol occurs more than once),
// all-read-only and all-RPC fingerprints.
func fuzzLibrary(rng *rand.Rand) *Library {
	alphabet := []trace.API{
		get("/a"), get("/b"), post("/c"), post("/d"), post("/e"),
		rpc("x"), rpc("y"), get("/f"),
	}
	lib := NewLibrary()
	for n := 1 + rng.Intn(6); n > 0; n-- {
		name := string(rune('p' + rng.Intn(3))) // few names: variants collide
		pick := func() trace.API { return alphabet[rng.Intn(len(alphabet))] }
		switch rng.Intn(5) {
		case 0: // all read-only
			pick = func() trace.API { return []trace.API{get("/a"), get("/b"), get("/f")}[rng.Intn(3)] }
		case 1: // all RPC
			pick = func() trace.API { return []trace.API{rpc("x"), rpc("y")}[rng.Intn(2)] }
		}
		apis := make([]trace.API, 1+rng.Intn(9))
		for i := range apis {
			apis[i] = pick()
		}
		lib.AddAPIs(name, "Fuzz", apis)
	}
	return lib
}

// FuzzMatcherEquivalence holds the compiled matcher to the naive
// reference: over random libraries, patterns and [lo, hi) views, every
// candidate program's relaxed / strict / correlated verdict equals
// the reference's for the truncated-then-pruned copy, every Explain*
// verdict equals its Match*, the precomputed posting facts (distinct
// names, first-variant groups) equal a recount, and unknown runes and
// empty patterns never panic. The bound walk Algorithm 2 runs is held to
// the naive reference and the binary-search walk at once, and each view's
// MatchStep to the naive verdicts, the way detect uses them: one
// ResetBound per pattern, then nested views growing from
// [lo, hi) to the whole pattern — over the pattern as drawn, and over it
// with the offending symbol (every truncated program's final one),
// another symbol or every even-slot symbol but the offending one removed
// (halved), so absent finals and absent mandatory symbols are common —
// and over each candidate's own pattern with its final symbol just past
// the view (checkFinalOutside).
func FuzzMatcherEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, []byte{1, 2, 3, 4, 5, 6, 7, 0, 3, 3}, uint8(0), uint8(10))
	}
	f.Add(int64(9), []byte{}, uint8(0), uint8(0))
	f.Add(int64(10), []byte{255, 254, 9, 200}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, loRaw, hiRaw uint8) {
		lib := fuzzLibrary(rand.New(rand.NewSource(seed)))
		known := lib.Table.Len()
		pattern := make([]rune, len(raw))
		for i, b := range raw {
			switch {
			case b >= 250: // outside the private-use area entirely
				pattern[i] = rune(b)
			case b >= 240: // inside it, beyond every assigned symbol
				pattern[i] = symbol.Max - 1 - rune(b-240)
			default:
				pattern[i] = symbol.Base + rune(int(b)%(known+1)) // +1: one unassigned slot
			}
		}
		lo := int(loRaw) % (len(pattern) + 1)
		hi := lo + int(hiRaw)%(len(pattern)-lo+1)
		view := NewIndex(pattern).Slice(lo, hi)
		sub := pattern[lo:hi]
		if view.Len() != len(sub) {
			t.Fatalf("view len %d, want %d", view.Len(), len(sub))
		}

		for off := symbol.Base; off <= symbol.Base+rune(known); off++ {
			cands := lib.Candidates(off)
			var want []*Fingerprint // the posting list, recounted
			for _, fp := range lib.All() {
				if fp.Truncate(off) != nil {
					want = append(want, fp)
				}
			}
			if cands.Len() != len(want) {
				t.Fatalf("symbol %U: %d candidates, want %d", off, cands.Len(), len(want))
			}
			names := map[string]int{}
			for i, fp := range want {
				if cands.Name(i) != fp.Name {
					t.Fatalf("symbol %U candidate %d: %s, want %s (library order)", off, i, cands.Name(i), fp.Name)
				}
				if _, ok := names[fp.Name]; !ok {
					names[fp.Name] = i
				}
				if cands.First(i) != names[fp.Name] {
					t.Fatalf("symbol %U candidate %d: first %d, want %d", off, i, cands.First(i), names[fp.Name])
				}
				for mode := 0; mode < 4; mode++ {
					truncate, prune := mode&1 != 0, mode&2 != 0
					p := cands.Program(i, truncate, prune)
					ref := referenceProgram(fp, off, truncate, prune)
					if p.Len() != ref.Len() {
						t.Fatalf("%s@%U truncate=%v prune=%v: program len %d, reference %d", fp.Name, off, truncate, prune, p.Len(), ref.Len())
					}
					check := func(matcher string, got, want, explained bool) {
						t.Helper()
						if got != want || explained != got {
							t.Fatalf("%s %s@%U truncate=%v prune=%v fp=%q pattern=%q [%d,%d): compiled %v, explain %v, reference %v",
								matcher, fp.Name, off, truncate, prune, string(fp.Symbols), string(pattern), lo, hi, got, explained, want)
						}
					}
					check("relaxed", p.MatchRelaxed(view), ref.naiveOrdered(sub), p.ExplainRelaxed(view, lib.Table).Matched)
					strict := p.MatchStrict(sub) // the ablation's matcher; no explain twin
					check("strict", strict, ref.naiveStrict(sub), strict)
					check("correlated", p.MatchCorrelated(view), ref.naiveCorrelated(sub), p.ExplainCorrelated(view, lib.Table).Matched)
				}
			}
			if cands.Names() != len(names) {
				t.Fatalf("symbol %U: %d names, want %d", off, cands.Names(), len(names))
			}
			other := symbol.Base + rune(int(loRaw^hiRaw)%(known+1))
			for _, pat := range [][]rune{pattern, without(pattern, off), without(pattern, other), halved(pattern, off)} {
				checkBound(t, cands, want, off, pat, lo, hi)
			}
			checkFinalOutside(t, cands, want, off)
		}
	})
}

// without returns pattern with every occurrence of r removed.
func without(pattern []rune, r rune) []rune {
	return slices.DeleteFunc(slices.Clone(pattern), func(s rune) bool { return s == r })
}

// halved returns pattern without every symbol of an even slot but keep,
// so about half of each bound program's mandatory symbols are absent
// from the whole pattern and binding compacts them out.
func halved(pattern []rune, keep rune) []rune {
	return slices.DeleteFunc(slices.Clone(pattern), func(s rune) bool { return s != keep && (s-symbol.Base)%2 == 0 })
}

// checkBound binds cands (whose fingerprints are fps) to one index over
// pattern under every truncate / prune / every-column mode, then checks
// MatchBound for every candidate against the naive and binary-search
// walks over views nested like Algorithm 2's growing context buffer, on
// the every-column table MatchRelaxed too, and MatchStep for each view
// against the naive verdicts (checkStep).
func checkBound(t *testing.T, cands Candidates, fps []*Fingerprint, off rune, pattern []rune, lo, hi int) {
	t.Helper()
	lo, hi = min(lo, len(pattern)), min(hi, len(pattern))
	si := newSearchIndex(pattern)
	var idx Index
	for mode := 0; mode < 8; mode++ {
		truncate, prune, every := mode&1 != 0, mode&2 != 0, mode&4 != 0
		idx.ResetBound(pattern, cands, truncate, prune, every)
		for vlo, vhi := lo, hi; ; vlo, vhi = max(vlo-2, 0), min(vhi+2, len(pattern)) {
			ok := make([]bool, len(fps))
			for i, fp := range fps {
				ref := referenceProgram(fp, off, truncate, prune)
				got, want := idx.MatchBound(i, vlo, vhi), ref.naiveOrdered(pattern[vlo:vhi])
				ok[i] = want
				if every {
					// The explain-mode table also serves the relaxed matcher.
					if p := cands.Program(i, truncate, prune); p.MatchRelaxed(idx.Slice(vlo, vhi)) != want {
						t.Fatalf("every-column table: relaxed %s@%U truncate=%v prune=%v pattern=%q [%d,%d): want %v",
							fp.Name, off, truncate, prune, string(pattern), vlo, vhi, want)
					}
				}
				if searched := si.relaxed(ref, vlo, vhi); got != want || searched != want {
					t.Fatalf("bound %s@%U truncate=%v prune=%v every=%v fp=%q pattern=%q [%d,%d): bound %v, binary search %v, reference %v",
						fp.Name, off, truncate, prune, every, string(fp.Symbols), string(pattern), vlo, vhi, got, searched, want)
				}
			}
			checkStep(t, &idx, cands, ok, vlo, vhi)
			if vlo == 0 && vhi == len(pattern) {
				break
			}
		}
	}
}

// checkFinalOutside binds cands (whose fingerprints are fps), under
// every truncate / prune / every-column mode, over a pattern built for
// each bound candidate in turn: its mandatory symbols other than the
// final one, in order, then the final symbol. The view stops just before
// that last position, so the final symbol is in the pattern but outside
// the view while every other mandatory symbol is inside. Neither
// MatchBound nor MatchStep may match the candidate there, and every
// candidate's verdicts over the view must equal the naive reference's.
func checkFinalOutside(t *testing.T, cands Candidates, fps []*Fingerprint, off rune) {
	t.Helper()
	var idx Index
	for mode := 0; mode < 8; mode++ {
		truncate, prune, every := mode&1 != 0, mode&2 != 0, mode&4 != 0
		for i := range fps {
			mand, final, bound := cands.BoundRun(i, truncate, prune)
			if !bound {
				continue
			}
			pat := append(without(mand, final), final)
			hi := len(pat) - 1
			idx.ResetBound(pat, cands, truncate, prune, every)
			ok := make([]bool, len(fps))
			for k, fp := range fps {
				ok[k] = referenceProgram(fp, off, truncate, prune).naiveOrdered(pat[:hi])
				if got := idx.MatchBound(k, 0, hi); got != ok[k] {
					t.Fatalf("final outside the view of %q: bound %s@%U truncate=%v prune=%v pattern=%q [0,%d): bound %v, reference %v",
						fps[i].Name, fps[k].Name, off, truncate, prune, string(pat), hi, got, ok[k])
				}
			}
			if ok[i] {
				t.Fatalf("%s@%U truncate=%v prune=%v pattern=%q [0,%d): reference matched without the final symbol",
					fps[i].Name, off, truncate, prune, string(pat), hi)
			}
			checkStep(t, &idx, cands, ok, 0, hi)
		}
	}
}

// checkStep holds MatchStep over positions [lo, hi), and MatchEach fed
// the verdicts themselves, to the naive per-candidate verdicts ok: under every limit, the first matching
// candidate of each operation in candidate order, cut after the
// (limit+1)-th.
func checkStep(t *testing.T, idx *Index, cands Candidates, ok []bool, lo, hi int) {
	t.Helper()
	for _, limit := range []int{len(ok), 1, 0} {
		var want []int32
		seen := map[int]bool{}
		for i, m := range ok {
			if m && !seen[cands.First(i)] {
				seen[cands.First(i)] = true
				if want = append(want, int32(i)); len(want) > limit {
					break
				}
			}
		}
		if got := idx.MatchStep(lo, hi, limit, nil); !slices.Equal(got, want) {
			t.Fatalf("MatchStep [%d,%d) limit %d: %v, reference %v", lo, hi, limit, got, want)
		}
		if got := idx.MatchEach(cands, limit, nil, func(i int) bool { return ok[i] }); !slices.Equal(got, want) {
			t.Fatalf("MatchEach [%d,%d) limit %d: %v, reference %v", lo, hi, limit, got, want)
		}
	}
}

// TestWideTableMatchesReference drives the int32 table: patterns of more
// than math.MaxUint16 indexed positions, which the fuzzer's short
// patterns never reach. Every bound, relaxed and correlated
// verdict and every MatchStep over views at the start, middle and end
// of such a pattern, and over all of it, must equal the naive
// reference's — with the offending symbol present and removed, and with
// about half of every program's mandatory symbols removed (halved), so
// the compacted programs are walked too.
func TestWideTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lib := fuzzLibrary(rng)
	known := lib.Table.Len()
	// Wide enough that removing one of the known symbols, or halving the
	// alphabet, leaves it wide.
	pattern := make([]rune, 70000*known/(known/2))
	for i := range pattern {
		pattern[i] = symbol.Base + rune(rng.Intn(known))
	}
	var idx Index
	for off := symbol.Base; off < symbol.Base+rune(known); off++ {
		cands := lib.Candidates(off)
		var fps []*Fingerprint
		for _, fp := range lib.All() {
			if fp.Truncate(off) != nil {
				fps = append(fps, fp)
			}
		}
		for _, pat := range [][]rune{pattern, without(pattern, off), halved(pattern, off)} {
			n := len(pat)
			views := [][2]int{{0, n}, {0, 300}, {n/2 - 150, n/2 + 150}, {n - 300, n}, {n - 1, n}, {n - 66000, n}}
			for mode := 0; mode < 4; mode++ {
				truncate, prune := mode&1 != 0, mode&2 != 0
				idx.ResetBound(pat, cands, truncate, prune, true)
				if !idx.isWide {
					t.Fatalf("%U: %d indexed positions built a narrow table", off, idx.rank[n])
				}
				for _, v := range views {
					view, sub := idx.Slice(v[0], v[1]), pat[v[0]:v[1]]
					ok := make([]bool, len(fps))
					for i, fp := range fps {
						ref, p := referenceProgram(fp, off, truncate, prune), cands.Program(i, truncate, prune)
						check := func(matcher string, got, want bool) {
							t.Helper()
							if got != want {
								t.Fatalf("%s %s@%U truncate=%v prune=%v fp=%q view [%d,%d) of %d: got %v, reference %v",
									matcher, fp.Name, off, truncate, prune, string(fp.Symbols), v[0], v[1], n, got, want)
							}
						}
						relaxed := ref.naiveOrdered(sub)
						ok[i] = relaxed
						check("bound", idx.MatchBound(i, v[0], v[1]), relaxed)
						check("relaxed", p.MatchRelaxed(view), relaxed)
						check("correlated", p.MatchCorrelated(view), ref.naiveCorrelated(sub))
					}
					checkStep(t, &idx, cands, ok, v[0], v[1])
				}
			}
		}
	}
}
