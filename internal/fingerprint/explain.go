// Explainable matching: each matcher the analyzer runs, MatchRelaxed and
// MatchCorrelated, has an Explain* twin that records the evidence — how
// many mandatory symbols were satisfied, which omissions the relaxed
// semantics tolerated, and the concrete reason a losing candidate lost.
// Each pair shares one verdict function (explainOrdered, explainCovered),
// so verdicts cannot drift between what the analyzer decided and what
// the evidence trace claims.
package fingerprint

import (
	"fmt"

	"gretel/internal/symbol"
)

// Explanation is the evidence behind one fingerprint-vs-snapshot verdict.
type Explanation struct {
	// Matched is the verdict, identical to the corresponding Match*.
	Matched bool
	// MandatoryTotal is the size of the match obligation: mandatory
	// symbols for the ordered walk, the correlation-filtered pattern's
	// length for the coverage test (the unit Satisfied counts in).
	MandatoryTotal int
	// Satisfied counts obligation symbols found in order, or for the
	// coverage test the pattern occurrences the fingerprint explains.
	Satisfied int
	// Omitted counts mandatory symbols absent from the snapshot that the
	// relaxed semantics tolerated.
	Omitted int
	// Score is the fraction of the obligation satisfied — Satisfied /
	// MandatoryTotal for the ordered walk, the fraction of the
	// correlation-filtered pattern explained for the coverage test. 1.0
	// on a relaxed match.
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
	exp := Explanation{tbl: tbl}
	exp.Matched = p.explainOrdered(&idx, &exp)
	return exp
}

// explainOrdered runs the ordered walk over idx's view with every
// obligation of p resolved, absent ones included, and returns the
// verdict. When exp is non-nil (the explain path) it also records the
// walk's evidence: the mandatory-symbol total, omissions tolerated, the
// score and — on failure — the concrete rejection reason.
func (p Program) explainOrdered(idx *Index, exp *Explanation) bool {
	if len(p.syms) == 0 {
		if exp != nil {
			exp.Reason = "empty fingerprint: no mandatory symbols to match"
		}
		return false
	}
	var buf [32]uint16
	prog := idx.resolve(buf[:0], p)
	matched, at, early := idx.walk(prog, idx.rank[idx.lo], idx.rank[idx.hi])
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
	if early {
		exp.Reason = fmt.Sprintf(
			"order violated: %s occurs in the context buffer only before the match point (after %d of %d mandatory symbols)",
			exp.sym(sym), matched, total)
	} else {
		exp.Reason = fmt.Sprintf("offending symbol %s absent from the context buffer", exp.sym(sym))
	}
	return false
}

// ExplainCorrelated is MatchCorrelated with evidence: same coverage
// test, same verdict, plus the score and rejection reason.
func (p Program) ExplainCorrelated(idx Index, tbl *symbol.Table) Explanation {
	exp := Explanation{tbl: tbl, MandatoryTotal: idx.Len()}
	exp.Matched = p.explainCovered(&idx, &exp)
	return exp
}

// explainCovered runs the coverage test over idx's view and returns the
// verdict: p's final symbol must occur in the view, and the view's
// occurrences of p's symbols must make up at least corrCoverage of it.
// When exp is non-nil (the explain path) it also records the test's
// evidence: the occurrences covered, the score and — on failure — the
// concrete rejection reason.
func (p Program) explainCovered(idx *Index, exp *Explanation) bool {
	n := idx.Len()
	if n == 0 || len(p.syms) == 0 {
		if exp != nil {
			exp.Reason = "empty correlation-filtered pattern or empty fingerprint"
		}
		return false
	}
	if final := p.syms[len(p.syms)-1]; !idx.contains(final) {
		if exp != nil {
			exp.Reason = fmt.Sprintf(
				"offending symbol %s absent from the correlation-filtered pattern", exp.sym(final))
		}
		return false
	}
	covered := 0
	for _, sym := range p.set {
		covered += idx.count(sym)
	}
	matched := float64(covered) >= corrCoverage*float64(n)
	if exp != nil {
		exp.Satisfied, exp.Score = covered, float64(covered)/float64(n)
		if !matched {
			exp.Reason = fmt.Sprintf(
				"fingerprint explains only %d of %d pattern occurrences (%.0f%%, below the %.0f%% coverage bar)",
				covered, n, exp.Score*100, corrCoverage*100)
		}
	}
	return matched
}
