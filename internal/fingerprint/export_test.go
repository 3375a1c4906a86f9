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
