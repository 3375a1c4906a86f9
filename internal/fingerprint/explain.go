// Explainable matching: every Match* verdict can be re-run through an
// Explain* twin that records the evidence — how many mandatory symbols
// were satisfied, which omissions the relaxed semantics tolerated, and
// the concrete reason a losing candidate lost. The explain path reuses
// the production walks (Index.walk, subsequencePrefix, covered), so
// verdicts cannot drift between what the analyzer decided and what the
// evidence trace claims.
package fingerprint

import (
	"fmt"

	"gretel/internal/symbol"
)

// Explanation is the evidence behind one fingerprint-vs-snapshot verdict.
type Explanation struct {
	// Matched is the verdict, identical to the corresponding Match*.
	Matched bool
	// Mode names the matcher: "relaxed", "exact", "strict", "correlated".
	Mode string
	// MandatoryTotal is the size of the match obligation: mandatory
	// symbols for the ordered walks, full symbol count for strict.
	MandatoryTotal int
	// Satisfied counts obligation symbols found in order.
	Satisfied int
	// Omitted counts mandatory symbols absent from the snapshot that the
	// relaxed semantics tolerated.
	Omitted int
	// Coverage is the fraction of the correlation-filtered pattern the
	// fingerprint explains (correlated mode only).
	Coverage float64
	// Score is the fraction of the obligation satisfied — Satisfied /
	// MandatoryTotal for the ordered and strict walks, Coverage for
	// correlated. 1.0 on a match.
	Score float64
	// Reason is the concrete rejection reason; empty when Matched.
	Reason string

	tbl *symbol.Table
}

// sym renders a symbol as its API name when a table is available.
func (e *Explanation) sym(r rune) string {
	if e.tbl != nil {
		if api, ok := e.tbl.API(r); ok {
			return api.String()
		}
	}
	return fmt.Sprintf("symbol U+%04X", r)
}

// ExplainRelaxed is MatchRelaxed with evidence: same walk, same verdict,
// plus the score and rejection reason.
func (p Program) ExplainRelaxed(idx Index, tbl *symbol.Table) Explanation {
	exp := Explanation{Mode: "relaxed", tbl: tbl}
	exp.Matched = p.explainOrdered(&idx, true, &exp)
	return exp
}

// ExplainExact is MatchExact with evidence.
func (p Program) ExplainExact(idx Index, tbl *symbol.Table) Explanation {
	exp := Explanation{Mode: "exact", tbl: tbl}
	exp.Matched = p.explainOrdered(&idx, false, &exp)
	return exp
}

// explainOrdered runs the ordered walk over idx's view with every
// obligation of p resolved, absent ones included, and returns the
// verdict. When exp is non-nil (the explain path) it also records the
// walk's evidence: the mandatory-symbol total, omissions tolerated, the
// score and — on failure — the concrete rejection reason.
func (p Program) explainOrdered(idx *Index, allowOmission bool, exp *Explanation) bool {
	if len(p.syms) == 0 {
		if exp != nil {
			exp.Reason = "empty fingerprint: no mandatory symbols to match"
		}
		return false
	}
	var buf [32]uint16
	prog := idx.resolve(buf[:0], p)
	matched, at, early := idx.walk(prog, idx.rank[idx.lo], idx.rank[idx.hi], allowOmission)
	total := len(prog)
	if exp == nil {
		return at == total
	}
	exp.MandatoryTotal, exp.Satisfied, exp.Omitted = total, matched, at-matched
	if at == total {
		exp.Score = 1
		return true
	}
	exp.Score = float64(matched) / float64(total)
	sym := p.syms[len(p.syms)-1]
	if at < len(p.mand) {
		sym = p.mand[at]
	}
	switch {
	case early:
		exp.Reason = fmt.Sprintf(
			"order violated: %s occurs in the context buffer only before the match point (after %d of %d mandatory symbols)",
			exp.sym(sym), matched, total)
	case at == total-1:
		exp.Reason = fmt.Sprintf("offending symbol %s absent from the context buffer", exp.sym(sym))
	default:
		exp.Reason = fmt.Sprintf("%s absent from the context buffer (exact mode tolerates no omissions)", exp.sym(sym))
	}
	return false
}

// ExplainStrict is MatchStrict with evidence: the full-sequence
// subsequence walk, recording where it stalled.
func (p Program) ExplainStrict(snapshot []rune, tbl *symbol.Table) Explanation {
	exp := Explanation{Mode: "strict", tbl: tbl, MandatoryTotal: len(p.syms)}
	if len(p.syms) == 0 {
		exp.Reason = "empty fingerprint: no symbols to match"
		return exp
	}
	i := subsequencePrefix(p.syms, snapshot)
	exp.Satisfied = i
	exp.Matched = i == len(p.syms)
	exp.Score = float64(i) / float64(len(p.syms))
	if !exp.Matched {
		exp.Reason = fmt.Sprintf(
			"strict subsequence stalled at symbol %d of %d: no %s after the match point",
			i+1, len(p.syms), exp.sym(p.syms[i]))
	}
	return exp
}

// ExplainCorrelated is MatchCorrelated with evidence: the coverage
// computation over the correlation-filtered pattern, verbatim.
func (p Program) ExplainCorrelated(idx Index, tbl *symbol.Table) Explanation {
	exp := Explanation{Mode: "correlated", tbl: tbl, MandatoryTotal: len(p.syms)}
	n := idx.Len()
	if n == 0 || len(p.syms) == 0 {
		exp.Reason = "empty correlation-filtered pattern or empty fingerprint"
		return exp
	}
	final := p.syms[len(p.syms)-1]
	if !idx.contains(final) {
		exp.Reason = fmt.Sprintf(
			"offending symbol %s absent from the correlation-filtered pattern", exp.sym(final))
		return exp
	}
	covered := p.covered(&idx)
	exp.Coverage = float64(covered) / float64(n)
	exp.Score = exp.Coverage
	exp.Satisfied = covered
	exp.Matched = float64(covered) >= corrCoverage*float64(n)
	if !exp.Matched {
		exp.Reason = fmt.Sprintf(
			"fingerprint explains only %d of %d pattern occurrences (%.0f%%, below the %.0f%% coverage bar)",
			covered, n, exp.Coverage*100, corrCoverage*100)
	}
	return exp
}

// ExplainRelaxed is Program.ExplainRelaxed for the whole fingerprint.
func (f *Fingerprint) ExplainRelaxed(idx Index, tbl *symbol.Table) Explanation {
	return f.whole().ExplainRelaxed(idx, tbl)
}
