// The compiled matcher. Library.AddAPIs compiles each fingerprint once
// into the library's flat, pointer-free stores; Algorithm 2 then cuts a
// Program out of them per candidate in O(1) and walks it against a dense
// occurrence Index of the snapshot pattern. Nothing here is written after
// AddAPIs returns, so concurrent detect workers share it without locks.

package fingerprint

import (
	"fmt"
	"slices"

	"gretel/internal/symbol"
	"gretel/internal/trace"
)

// form is one fingerprint compiled under one prune mode (RPC symbols kept
// or dropped), as offsets into Library.runes and Library.counts:
//
//	runes[syms:]       the symbols surviving the pruning
//	runes[mand:]       the state-change ones among them, in order
//	runes[set:]        their distinct symbols, by first occurrence
//	counts[cuts+3c:]   for the fingerprint cut before original index c:
//	                   how many of syms survive, how many of mand precede
//	                   the last survivor, how many of set they use
//
// Every prefix of the fingerprint is thereby three prefix slices: the
// truncated, pruned pattern is a view, never a copy.
type form struct{ syms, mand, set, cuts int32 }

// compile appends fp's two forms (index 0 unpruned, 1 RPC-pruned) to the
// library stores.
func (l *Library) compile(fp *Fingerprint) [2]form {
	var fs [2]form
	seen := make(map[rune]bool, len(fp.Symbols))
	for m := range fs {
		var syms, mand, set []rune
		var cuts []int32
		final := 0 // 1 while the last survivor is state-changing, hence mand's last
		cut := func() { cuts = append(cuts, int32(len(syms)), int32(len(mand)-final), int32(len(set))) }
		clear(seen)
		for i, r := range fp.Symbols {
			cut()
			if m == 1 && fp.APIs[i].Kind == trace.RPC {
				continue
			}
			syms = append(syms, r)
			final = 0
			if fp.state[i] {
				mand = append(mand, r)
				final = 1
			}
			if !seen[r] {
				seen[r] = true
				set = append(set, r)
			}
		}
		cut()
		fs[m] = form{
			syms: push(&l.runes, syms), mand: push(&l.runes, mand), set: push(&l.runes, set),
			cuts: push(&l.counts, cuts),
		}
	}
	return fs
}

// push appends s to a library store and returns where it starts.
func push[T any](store *[]T, s []T) int32 {
	off := int32(len(*store))
	*store = append(*store, s...)
	return off
}

// program cuts fingerprint id before original index cut under the given
// prune mode. The cut is taken in the UN-pruned sequence and the pruning
// applied after it, so when the symbol at the cut is itself pruned the
// program ends at the last survivor before it.
func (l *Library) program(id, cut int32, pruneRPC bool) Program {
	f := &l.forms[id][0]
	if pruneRPC {
		f = &l.forms[id][1]
	}
	n := l.counts[f.cuts+3*cut:]
	return Program{
		syms: l.runes[f.syms : f.syms+n[0]],
		mand: l.runes[f.mand : f.mand+n[1]],
		set:  l.runes[f.set : f.set+n[2]],
	}
}

// Program is one fingerprint as Algorithm 2 matches it — whole, or
// truncated at the offending API; RPC symbols pruned or not. One value
// serves every matcher: the relaxed and exact walks use mand plus the
// final symbol, the strict walk syms, the correlated test set. The zero
// Program (a fingerprint pruned to nothing) never matches.
type Program struct {
	syms []rune // surviving symbols; the last is the final (offending) one
	mand []rune // state-change symbols before the final one, in order
	set  []rune // distinct symbols of syms
}

// Len returns the program length in symbols.
func (p Program) Len() int { return len(p.syms) }

// Candidates is the compiled posting list of one offending symbol: the
// fingerprints containing it, in library order
// (GET_POSSIBLE_OFFENDING_OPERATIONS in Algorithm 2).
type Candidates struct {
	lib  *Library
	list []posting
	// names counts the distinct operation names in list — branched
	// operations register one fingerprint per variant.
	names int
}

type posting struct {
	fp    int32 // index into Library.fps
	cut   int32 // one past the symbol's LAST occurrence in that fingerprint
	first int32 // list index of the first entry sharing this entry's Name
}

// Len returns the number of candidate fingerprints.
func (c Candidates) Len() int { return len(c.list) }

// Names returns the number of distinct operation names among them.
func (c Candidates) Names() int { return c.names }

// Name returns candidate i's operation name.
func (c Candidates) Name(i int) string { return c.lib.fps[c.list[i].fp].Name }

// First returns the index of the first candidate sharing candidate i's
// name (i itself unless i is a later variant of a branched operation).
func (c Candidates) First(i int) int { return int(c.list[i].first) }

// Program returns candidate i's match program: truncated at the last
// occurrence of the offending symbol, inclusive (Algorithm 2's
// TRUNCATE_OPERATION_FINGERPRINTS), or whole; then RPC-pruned or not
// (the §6 optimization).
func (c Candidates) Program(i int, truncate, pruneRPC bool) Program {
	e := c.list[i]
	if !truncate {
		e.cut = int32(len(c.lib.fps[e.fp].Symbols))
	}
	return c.lib.program(e.fp, e.cut, pruneRPC)
}

// Index is the occurrence index of one snapshot pattern, so many programs
// can be matched against one context buffer cheaply (the §6 optimization
// of offloading regex matching applies the same idea: index once, match
// hundreds of patterns). Symbols are symbol.Base+s, so the posting lists
// are dense, CSR-style: pos groups the pattern positions by symbol and
// first[s]:first[s+1] bounds symbol s's group; runes outside the table
// have no occurrences. An Index carries view bounds [lo, hi) over the
// indexed sequence, so a growing context buffer re-slices one index built
// over the whole snapshot instead of rebuilding per β step.
type Index struct {
	first  []int32
	pos    []int32
	lo, hi int32
}

// NewIndex builds the occurrence index for a symbol sequence.
func NewIndex(pattern []rune) Index {
	var idx Index
	idx.Reset(pattern)
	return idx
}

// slot maps a rune to its table slot.
func slot(r rune) (int, bool) {
	return int(r - symbol.Base), r >= symbol.Base && r < symbol.Max
}

// Reset re-indexes idx over pattern, reusing its storage. Views sliced
// from idx earlier are invalidated.
func (idx *Index) Reset(pattern []rune) {
	slots := 0
	for _, r := range pattern {
		if s, ok := slot(r); ok && s >= slots {
			slots = s + 1
		}
	}
	// Count into first[s+2], prefix-sum so first[s+1] is where s's group
	// begins, then let the fill advance it to where the group ends.
	first := slices.Grow(idx.first[:0], slots+2)[:slots+2]
	clear(first)
	for _, r := range pattern {
		if s, ok := slot(r); ok {
			first[s+2]++
		}
	}
	for s := 2; s < len(first); s++ {
		first[s] += first[s-1]
	}
	pos := slices.Grow(idx.pos[:0], int(first[slots+1]))[:first[slots+1]]
	for i, r := range pattern {
		if s, ok := slot(r); ok {
			pos[first[s+1]] = int32(i)
			first[s+1]++
		}
	}
	*idx = Index{first: first, pos: pos, hi: int32(len(pattern))}
}

// Slice returns a view of the index restricted to positions [lo, hi) of
// the originally indexed sequence. The posting lists are shared — the
// call is O(1) and the view is read-only like its parent.
func (idx Index) Slice(lo, hi int) Index {
	l, h := int32(lo), int32(hi)
	if l < idx.lo {
		l = idx.lo
	}
	if h > idx.hi {
		h = idx.hi
	}
	if h < l {
		h = l
	}
	idx.lo, idx.hi = l, h
	return idx
}

// Len reports the view length (the full pattern length for an unsliced
// index).
func (idx Index) Len() int { return int(idx.hi - idx.lo) }

// positions returns every position of r in the indexed sequence.
func (idx *Index) positions(r rune) []int32 {
	s, ok := slot(r)
	if !ok || s+1 >= len(idx.first) {
		return nil
	}
	return idx.pos[idx.first[s]:idx.first[s+1]]
}

// searchPos returns the first index in positions holding a value >= j.
func searchPos(positions []int32, j int32) int {
	lo, hi := 0, len(positions)
	for lo < hi {
		mid := (lo + hi) / 2
		if positions[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// count returns the number of occurrences of r within the view.
func (idx *Index) count(r rune) int {
	positions := idx.positions(r)
	return searchPos(positions, idx.hi) - searchPos(positions, idx.lo)
}

// contains reports whether r occurs anywhere within the view.
func (idx *Index) contains(r rune) bool { return idx.count(r) > 0 }

// MatchRelaxed reports whether the program matches the indexed snapshot
// under the paper's relaxed semantics (§5.3.1 "Example", Fig 4): the
// mandatory (state-change) symbols that are PRESENT in the snapshot must
// appear in fingerprint order; symbols entirely absent from the snapshot
// are tolerated (concurrent operations displace them out of the context
// buffer — "even though symbol A is missing from the context buffer, the
// truncated regular expression still matches as it preserves the order of
// E and F"). The program's final symbol — the offending API for a
// truncated fingerprint, or the last survivor before it when pruning
// removed it — is mandatory even when read-only, and must itself be
// present.
//
// Growing the context buffer makes this test stricter, not looser: more
// of a wrong candidate's symbols become present and must then be
// explained in order, which is why a larger β "forces a more precise
// match" (§7.3).
func (p Program) MatchRelaxed(idx Index) bool {
	ok, _ := p.walk(&idx, true, nil)
	return ok
}

// MatchExact requires every mandatory (state-change) symbol to be present
// in order, with no omissions.
func (p Program) MatchExact(idx Index) bool {
	ok, _ := p.walk(&idx, false, nil)
	return ok
}

// walk is the shared ordered walk behind the relaxed and exact matchers.
// When exp is non-nil (the explain path) it records, without changing the
// verdict, the walk's evidence: the mandatory-symbol total, omissions
// tolerated, and — on failure — the concrete rejection reason. The hot
// path passes nil and pays nothing.
func (p Program) walk(idx *Index, allowOmission bool, exp *Explanation) (bool, int) {
	if len(p.syms) == 0 {
		if exp != nil {
			exp.Reason = "empty fingerprint: no mandatory symbols to match"
		}
		return false, 0
	}
	total := len(p.mand) + 1
	if exp != nil {
		exp.MandatoryTotal = total
	}
	j := idx.lo
	matched := 0
	for i := 0; i < total; i++ {
		final := i == total-1
		sym := p.syms[len(p.syms)-1]
		if !final {
			sym = p.mand[i]
		}
		// The first occurrence at or after the match point, if the view
		// has one; failing that, one just before it means sym is present
		// in the view, only too early.
		ps := idx.positions(sym)
		at := searchPos(ps, j)
		if at == len(ps) || ps[at] >= idx.hi {
			if at > 0 && ps[at-1] >= idx.lo {
				// Present in the snapshot, but only before our match
				// point: the state-change order is violated.
				if exp != nil {
					exp.Reason = fmt.Sprintf(
						"order violated: %s occurs in the context buffer only before the match point (after %d of %d mandatory symbols)",
						exp.sym(sym), matched, total)
				}
				return false, matched
			}
			if !allowOmission || final {
				// Absent symbol: fatal in exact mode, and the offending
				// (final) symbol must be present in every mode.
				if exp != nil {
					if final {
						exp.Reason = fmt.Sprintf(
							"offending symbol %s absent from the context buffer", exp.sym(sym))
					} else {
						exp.Reason = fmt.Sprintf(
							"%s absent from the context buffer (exact mode tolerates no omissions)", exp.sym(sym))
					}
				}
				return false, matched
			}
			if exp != nil {
				exp.Omitted++
			}
			continue // absent from the snapshot: omission allowed
		}
		matched++
		j = ps[at] + 1
	}
	return true, matched
}

// MatchStrict reports whether every program symbol (reads included)
// appears in order in the snapshot, with no omissions. Used by the
// ablation comparing the relaxed matcher against a strict full-sequence
// match.
func (p Program) MatchStrict(snapshot []rune) bool {
	return len(p.syms) > 0 && subsequencePrefix(p.syms, snapshot) == len(p.syms)
}

// subsequencePrefix returns how many leading symbols of pattern appear,
// in order, in s.
func subsequencePrefix(pattern, s []rune) int {
	i := 0
	for _, r := range s {
		if i == len(pattern) {
			break
		}
		if r == pattern[i] {
			i++
		}
	}
	return i
}

// corrCoverage is the fraction of a correlation-filtered pattern that a
// matching candidate's fingerprint must explain.
const corrCoverage = 0.95

// MatchCorrelated matches a snapshot pre-filtered to one operation's own
// messages (the §5.3.1 correlation-id extension). Because every pattern
// symbol now belongs to a single operation, the decisive test flips: the
// candidate's fingerprint must EXPLAIN the pattern — at least
// corrCoverage of the pattern's symbol occurrences must be symbols of the
// candidate — and its final symbol must be present. The true operation
// always explains its own messages (they are literally its fingerprint's
// symbols, plus idempotent retries of them); unrelated candidates cannot.
// An ordered walk is deliberately NOT applied here: when the window
// truncates a long operation, repeated symbols make even the true
// operation's own sequence appear locally out of order.
func (p Program) MatchCorrelated(idx Index) bool {
	n := idx.Len()
	if n == 0 || len(p.syms) == 0 || !idx.contains(p.syms[len(p.syms)-1]) {
		return false
	}
	return float64(p.covered(&idx)) >= corrCoverage*float64(n)
}

// covered counts the view's occurrences of the program's symbols.
func (p Program) covered(idx *Index) int {
	covered := 0
	for _, sym := range p.set {
		covered += idx.count(sym)
	}
	return covered
}
