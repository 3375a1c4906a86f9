package fingerprint

// BoundRun is what ResetBound binds for candidate i, read from the
// posting entry or the form as the product reads it.
func (c Candidates) BoundRun(i int, truncate, pruneRPC bool) (mand []rune, final rune, ok bool) {
	return c.bound(i, mode(pruneRPC), truncate)
}

// MandFinal is the reference BoundRun is held to: the cut Program's
// mandatory run and final symbol, false for an empty program.
func (p Program) MandFinal() (mand []rune, final rune, ok bool) {
	if len(p.syms) == 0 {
		return nil, 0, false
	}
	return p.mand, p.syms[len(p.syms)-1], true
}

// MatchBound is the per-candidate walk MatchStep is held to: MatchRelaxed
// for candidate i of the set ResetBound bound, over positions [lo, hi) of
// the indexed pattern, through the walk the explaining matchers share.
func (idx *Index) MatchBound(i, lo, hi int) bool {
	start := int32(0)
	if i > 0 {
		start = idx.ends[i-1]
	}
	prog := idx.prog[start:idx.ends[i]]
	_, at, _ := idx.walk(prog, idx.rank[lo], idx.rank[hi])
	return len(prog) > 0 && at == len(prog)
}
