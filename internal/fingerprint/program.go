// The compiled matcher. Library.AddAPIs compiles each fingerprint once
// into the library's flat, pointer-free stores, and records in every
// posting entry the binding record of its cut program; Algorithm 2 binds
// each candidate's mandatory run and final symbol to the columns of the
// snapshot pattern's next-occurrence Index once per snapshot, straight
// from that record, and walks it with one table load per symbol.
// Nothing here is written after AddAPIs returns, so concurrent detect
// workers share it without locks.

package fingerprint

import (
	"math"
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
//
// whole is the uncut program's binding record (see binding).
type form struct {
	syms, mand, set, cuts int32
	whole                 binding
}

// binding packs what binding a program to an Index reads of it: the slot
// of its final symbol plus one in the low slotBits (0 for a program pruned
// to nothing), and above them how many mandatory symbols precede the
// final one — a prefix of the form's mand run. Posting entries carry one per
// prune mode for their cut, the form one for the whole fingerprint, so
// ResetBound binds every candidate from one 4-byte record and the run
// it names, without cutting a Program.
type binding uint32

// slotBits holds every symbol slot plus one: symbol.Max - symbol.Base is
// 6400, under 1<<13.
const slotBits = 13

// The constant overflows, failing the build, if slotBits stops holding
// every slot plus one.
const _ = uint(1<<slotBits - 1 - (symbol.Max - symbol.Base))

// bindingOf packs program p's binding record.
func bindingOf(p Program) binding {
	if len(p.syms) == 0 {
		return 0
	}
	if len(p.mand) >= 1<<(32-slotBits) {
		panic("fingerprint: too many state-change symbols in one fingerprint")
	}
	s, _ := slot(p.syms[len(p.syms)-1])
	return binding(len(p.mand))<<slotBits | binding(s+1)
}

// final returns the program's final symbol, false for an empty program.
func (b binding) final() (rune, bool) {
	return symbol.Base + rune(b&(1<<slotBits-1)) - 1, b != 0
}

// mand returns the length of the program's mandatory run.
func (b binding) mand() int32 { return int32(b >> slotBits) }

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
		fs[m].whole = bindingOf(l.cutForm(&fs[m], int32(len(fp.Symbols))))
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
	return l.cutForm(&l.forms[id][mode(pruneRPC)], cut)
}

// mode indexes a fingerprint's forms and a posting's bindings by prune
// mode.
func mode(pruneRPC bool) int {
	if pruneRPC {
		return 1
	}
	return 0
}

// cutForm cuts form f before original index cut.
func (l *Library) cutForm(f *form, cut int32) Program {
	n := l.counts[f.cuts+3*cut:]
	return Program{
		syms: l.runes[f.syms : f.syms+n[0]],
		mand: l.runes[f.mand : f.mand+n[1]],
		set:  l.runes[f.set : f.set+n[2]],
	}
}

// Program is one fingerprint as Algorithm 2 matches it — whole, or
// truncated at the offending API; RPC symbols pruned or not. One value
// serves every matcher: the relaxed walk uses mand plus the final
// symbol, the strict walk syms, the correlated test set. The zero
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
	fp    int32      // index into Library.fps
	cut   int32      // one past the symbol's LAST occurrence in that fingerprint
	first int32      // list index of the first entry sharing this entry's Name
	bind  [2]binding // the program cut at cut, by prune mode (unpruned, RPC-pruned)
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

// Shares reports whether c and d hold a fingerprint in common: one merge
// of the two posting lists, both in library order.
func (c Candidates) Shares(d Candidates) bool {
	for i, j := 0, 0; i < len(c.list) && j < len(d.list); {
		x, y := c.list[i].fp, d.list[j].fp
		if x == y {
			return true
		}
		i, j = i+b2i(x < y), j+b2i(y < x)
	}
	return false
}

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

// bound returns candidate i's program as ResetBound binds it — the
// mandatory run before its final symbol, and that final symbol — read
// from the posting entry (truncated) or the form (whole) without cutting
// a Program. ok is false for a program pruned to nothing.
func (c Candidates) bound(i, m int, truncate bool) (mand []rune, final rune, ok bool) {
	e := &c.list[i]
	f := &c.lib.forms[e.fp][m]
	b := f.whole
	if truncate {
		b = e.bind[m]
	}
	if final, ok = b.final(); !ok {
		return nil, 0, false
	}
	return c.lib.runes[f.mand : f.mand+b.mand()], final, true
}

// Index is the next-occurrence table of one snapshot pattern, so many
// programs can be matched against one context buffer cheaply (the §6
// optimization of offloading regex matching applies the same idea: index
// once, match hundreds of patterns). Each indexed symbol of the pattern
// has a column c, and only the m positions holding one have a row: row
// j's entry next[j*cols+c] is the first row >= j holding c's symbol, or m
// when there is none; column 0, absent, stands for every rune without a
// column and holds m throughout. A symbol's next occurrence from any
// match point is then one load, and rank maps a pattern position to the
// first row at or after it. An Index carries view bounds [lo, hi) over
// the indexed sequence, so a growing context buffer re-slices one index
// built over the whole snapshot instead of rebuilding per β step.
type Index struct {
	// col maps a symbol slot (rune - symbol.Base) to its column: 0 when
	// the pattern lacks the symbol, -1 while a present one has none.
	col    []int32
	rank   []int32  // by pattern position 0..n: rows before it
	narrow []uint16 // the table, while every row fits 16 bits
	wide   []int32  // the table, for more rows
	cols   int32
	isWide bool
	lo, hi int32
	// prog holds the programs ResetBound bound, as columns (there are
	// fewer than symbol.Max - symbol.Base): candidate i's are
	// prog[ends[i-1]:ends[i]]. first[i] is Candidates.First(i), and hit
	// is the per-operation scratch of MatchStep and MatchEach.
	prog  []uint16
	ends  []int32
	first []int32
	hit   []bool
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

// Reset re-indexes idx over pattern, every distinct symbol in a column of
// its own, reusing idx's storage. Views sliced from idx earlier are
// invalidated.
func (idx *Index) Reset(pattern []rune) {
	idx.mark(pattern)
	for _, r := range pattern {
		idx.assign(r)
	}
	idx.fill(pattern)
}

// ResetBound re-indexes idx over pattern for one report's candidates: it
// binds each candidate's program — cut and pruned as Candidates.Program
// does — to the columns of its mandatory and final symbols, and only
// those symbols get a column, so the table holds what the walks load and
// nothing else. A mandatory symbol absent from the whole pattern is
// absent from every view of it, so the relaxed walk would omit it at
// every β step; binding drops it once. A program that is empty or whose
// final symbol is absent binds to nothing and matches no view. With
// every set, every symbol gets a column as under Reset, so the table
// also serves the other matchers and the explaining walks; without it
// the table serves MatchStep only.
func (idx *Index) ResetBound(pattern []rune, cands Candidates, truncate, pruneRPC, every bool) {
	idx.mark(pattern)
	if every {
		for _, r := range pattern {
			idx.assign(r)
		}
	}
	prog, ends, first := idx.prog[:0], idx.ends[:0], idx.first[:0]
	m := mode(pruneRPC)
	for i := range cands.list {
		first = append(first, cands.list[i].first)
		if mand, r, ok := cands.bound(i, m, truncate); ok {
			if final := idx.assign(r); final != 0 {
				// Every column is written and the end advances past
				// the present ones only, so no symbol branches.
				n := len(prog)
				prog = slices.Grow(prog, len(mand)+1)[:n+len(mand)+1]
				for _, r := range mand {
					c := idx.assign(r)
					prog[n] = uint16(c)
					n += b2i(c != 0)
				}
				prog[n] = uint16(final)
				prog = prog[:n+1]
			}
		}
		ends = append(ends, int32(len(prog)))
	}
	idx.prog, idx.ends, idx.first = prog, ends, first
	idx.fill(pattern)
}

// b2i is 1 for true, 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mark clears idx for pattern: no columns yet, every symbol the pattern
// holds marked present.
func (idx *Index) mark(pattern []rune) {
	slots := 0
	for _, r := range pattern {
		if s, ok := slot(r); ok && s >= slots {
			slots = s + 1
		}
	}
	col := slices.Grow(idx.col[:0], slots)[:slots]
	clear(col)
	for _, r := range pattern {
		if s, ok := slot(r); ok {
			col[s] = -1
		}
	}
	*idx = Index{col: col, rank: idx.rank, narrow: idx.narrow, wide: idx.wide,
		prog: idx.prog, ends: idx.ends, first: idx.first, hit: idx.hit,
		cols: 1, hi: int32(len(pattern))}
}

// assign returns r's column, giving r the next one if the pattern holds
// it and it has none yet; 0 (absent) if the pattern lacks r.
func (idx *Index) assign(r rune) int32 {
	s, ok := slot(r)
	if !ok || s >= len(idx.col) {
		return 0
	}
	if idx.col[s] < 0 {
		idx.col[s] = idx.cols
		idx.cols++
	}
	return idx.col[s]
}

// fill ranks the pattern and builds the table for the columns assigned
// so far, narrow when every row fits.
func (idx *Index) fill(pattern []rune) {
	rank := slices.Grow(idx.rank[:0], len(pattern)+1)[:len(pattern)+1]
	m := int32(0)
	for p, r := range pattern {
		rank[p] = m
		if idx.column(r) > 0 {
			m++
		}
	}
	rank[len(pattern)] = m
	idx.rank = rank
	if idx.isWide = m > math.MaxUint16; idx.isWide {
		idx.wide = fill(idx.wide, pattern, idx.col, int(idx.cols), int(m))
	} else {
		idx.narrow = fill(idx.narrow, pattern, idx.col, int(idx.cols), int(m))
	}
}

// fill builds the m-row next-occurrence table of pattern into next's
// storage, from the last row (all m) backwards: each row is the one
// after it with its own symbol's column set to itself. Storage that must
// grow doubles past the need, so a stream whose snapshots vary little in
// shape settles on one table after a growth or two.
func fill[T uint16 | int32](next []T, pattern []rune, col []int32, cols, m int) []T {
	if cap(next) < (m+1)*cols {
		next = make([]T, 2*(m+1)*cols)
	}
	next = next[:(m+1)*cols]
	last := next[m*cols:]
	for c := range last {
		last[c] = T(m)
	}
	for p := len(pattern) - 1; p >= 0; p-- {
		if s, ok := slot(pattern[p]); ok && col[s] > 0 {
			m--
			row := next[m*cols : (m+1)*cols]
			copy(row, next[(m+1)*cols:])
			row[col[s]] = T(m)
		}
	}
	return next
}

// next returns the first row >= j holding column c's symbol, or the row
// count when there is none.
func (idx *Index) next(j, c int32) int32 {
	k := int(j)*int(idx.cols) + int(c)
	if idx.isWide {
		return idx.wide[k]
	}
	return int32(idx.narrow[k])
}

// column returns r's column, or 0 (absent) when r has none.
func (idx *Index) column(r rune) int32 {
	if s, ok := slot(r); ok && s < len(idx.col) && idx.col[s] > 0 {
		return idx.col[s]
	}
	return 0
}

// Slice returns a view of the index restricted to positions [lo, hi) of
// the originally indexed sequence. The table is shared — the call is O(1)
// and the view is read-only like its parent.
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

// Rows returns the table rows that pattern positions lo and hi map to.
// A view's MatchStep verdicts depend on nothing else, so two views with
// equal rows match the same candidates.
func (idx *Index) Rows(lo, hi int) (int32, int32) { return idx.rank[lo], idx.rank[hi] }

// Len reports the view length (the full pattern length for an unsliced
// index).
func (idx Index) Len() int { return int(idx.hi - idx.lo) }

// count returns the number of occurrences of r within the view.
func (idx *Index) count(r rune) int {
	c, n, hi := idx.column(r), 0, idx.rank[idx.hi]
	for k := idx.next(idx.rank[idx.lo], c); k < hi; k = idx.next(k+1, c) {
		n++
	}
	return n
}

// contains reports whether r occurs anywhere within the view.
func (idx *Index) contains(r rune) bool {
	return idx.next(idx.rank[idx.lo], idx.column(r)) < idx.rank[idx.hi]
}

// MatchStep is one β step of Algorithm 2 over the candidates ResetBound
// bound: each candidate's program is matched as MatchRelaxed would match
// it over positions [lo, hi) of the indexed pattern (0 <= lo <= hi <= n,
// whatever view idx itself carries), one operation at a time — a
// candidate whose operation an earlier variant matched is skipped — and
// the step stops once more than limit operations have matched. It
// appends the matched candidates' indexes to dst, in candidate order.
// The view's rows are read once, the table and the programs in place: no
// call, no copy per candidate. MatchStep marks operations in idx's
// scratch, so one caller at a time may use idx and its views.
func (idx *Index) MatchStep(lo, hi, limit int, dst []int32) []int32 {
	hit := idx.hits(len(idx.ends))
	if idx.isWide {
		return matchStep(idx.wide, idx, idx.rank[lo], idx.rank[hi], limit, hit, dst)
	}
	return matchStep(idx.narrow, idx, idx.rank[lo], idx.rank[hi], limit, hit, dst)
}

// MatchEach is MatchStep for the matchers it does not inline (strict and
// correlated): match(i) is candidate i's verdict over the step's view,
// and the step picks operations by the same rule — a candidate whose
// operation an earlier variant matched is skipped, and the step stops
// once more than limit operations have matched. It appends the matched
// candidates' indexes to dst, in candidate order, and uses only idx's
// scratch, so idx need not index anything.
func (idx *Index) MatchEach(cands Candidates, limit int, dst []int32, match func(i int) bool) []int32 {
	hit, matched := idx.hits(len(cands.list)), 0
	for i := range cands.list {
		if first := cands.list[i].first; !hit[first] && match(i) {
			hit[first] = true
			dst = append(dst, int32(i))
			if matched++; matched > limit {
				break
			}
		}
	}
	return dst
}

// hits returns the step's per-operation marks for n candidates, cleared.
func (idx *Index) hits(n int) []bool {
	if cap(idx.hit) < n {
		idx.hit = make([]bool, n)
	}
	hit := idx.hit[:n]
	clear(hit)
	return hit
}

// matchStep is MatchStep over table next, rows [lo, hi): walk's relaxed
// walk, inlined for every bound candidate.
func matchStep[T uint16 | int32](next []T, idx *Index, lo, hi int32, limit int, hit []bool, dst []int32) []int32 {
	cols, progs, first := int(idx.cols), idx.prog, idx.first
	// The view's first row, where a symbol absent from the match point
	// on is looked up again.
	loRow := next[int(lo)*cols : int(lo+1)*cols]
	matched, start := 0, int32(0)
outer:
	for i, end := range idx.ends {
		prog := progs[start:end]
		start = end
		// A final symbol absent from the view fails the walk whatever
		// precedes it, so the candidate is not walked.
		if len(prog) == 0 || hit[first[i]] || int32(loRow[prog[len(prog)-1]]) >= hi {
			continue
		}
		j := lo
		for _, c := range prog {
			if k := int32(next[int(j)*cols+int(c)]); k < hi {
				j = k + 1
				continue
			}
			// Absent at or after j: out of order if the view holds it
			// earlier (the final symbol always does), an omission
			// otherwise.
			if int32(loRow[c]) < hi {
				continue outer
			}
		}
		hit[first[i]] = true
		dst = append(dst, int32(i))
		if matched++; matched > limit {
			break
		}
	}
	return dst
}

// resolve appends every obligation of the non-empty program p as a column
// of idx, absent symbols included (as the absent column), so the walk's
// stopping point indexes p's obligations one to one.
func (idx *Index) resolve(dst []uint16, p Program) []uint16 {
	for _, r := range p.mand {
		dst = append(dst, uint16(idx.column(r)))
	}
	return append(dst, uint16(idx.column(p.syms[len(p.syms)-1])))
}

// walk is the ordered walk behind every relaxed verdict: prog's columns
// must occur in order within rows [lo, hi). Each symbol costs one table
// load from the match point j — it either occurs at or after j (the walk
// advances past it), occurs in the view only before j (the state-change
// order is violated: early), or is absent from the view, which the
// relaxed semantics tolerate for every symbol but the final one. It
// returns how many symbols matched and where the walk stopped:
// at == len(prog) on success; otherwise prog[at] failed.
func (idx *Index) walk(prog []uint16, lo, hi int32) (matched, at int, early bool) {
	j := lo
	for i, c := range prog {
		if k := idx.next(j, int32(c)); k < hi {
			matched++
			j = k + 1
			continue
		}
		if idx.next(lo, int32(c)) < hi {
			return matched, i, true
		}
		if i == len(prog)-1 {
			return matched, i, false
		}
	}
	return matched, len(prog), false
}

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
	return p.explainOrdered(&idx, nil)
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
