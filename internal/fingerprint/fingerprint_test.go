package fingerprint

import (
	"testing"
	"testing/quick"

	"gretel/internal/trace"
)

func get(p string) trace.API  { return trace.RESTAPI(trace.SvcNova, "GET", p) }
func post(p string) trace.API { return trace.RESTAPI(trace.SvcNova, "POST", p) }
func rpc(m string) trace.API  { return trace.RPCAPI(trace.SvcNovaCompute, m) }
func auth() trace.API         { return trace.RESTAPI(trace.SvcKeystone, "POST", "/v3/auth/tokens") }

func nf() *NoiseFilter {
	return NewNoiseFilter([]trace.API{trace.RPCAPI(trace.SvcNova, "report_state"), auth()})
}

func TestNoiseFilterDropsAuthAndHeartbeats(t *testing.T) {
	seq := []trace.API{auth(), get("/a"), trace.RPCAPI(trace.SvcNova, "report_state"), post("/b"), auth()}
	got := nf().Filter(seq)
	if len(got) != 2 || got[0] != get("/a") || got[1] != post("/b") {
		t.Fatalf("Filter = %v", got)
	}
}

func TestNoiseFilterKeepsLegitimateKeystoneCalls(t *testing.T) {
	// Only the common auth calls are noise; admin tasks listing Keystone
	// resources keep those APIs (the Misc category queries projects/users).
	projects := trace.RESTAPI(trace.SvcKeystone, "GET", "/v3/projects")
	got := nf().Filter([]trace.API{auth(), projects})
	if len(got) != 1 || got[0] != projects {
		t.Fatalf("Filter = %v, want [projects]", got)
	}
}

func TestNoiseFilterServiceWideConfig(t *testing.T) {
	f := nf()
	f.NoiseServices[trace.SvcKeystone] = true
	projects := trace.RESTAPI(trace.SvcKeystone, "GET", "/v3/projects")
	if got := f.Filter([]trace.API{projects, get("/a")}); len(got) != 1 || got[0] != get("/a") {
		t.Fatalf("service-wide filter = %v", got)
	}
}

func TestNoiseFilterCollapsesIdempotentRepeats(t *testing.T) {
	seq := []trace.API{get("/a"), get("/a"), get("/a"), post("/b"), post("/b"), get("/a")}
	got := nf().Filter(seq)
	// Consecutive GET repeats collapse; POST repeats do not; the later
	// GET /a is not adjacent so it stays.
	want := []trace.API{get("/a"), post("/b"), post("/b"), get("/a")}
	if len(got) != len(want) {
		t.Fatalf("Filter = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Filter[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLCSBasics(t *testing.T) {
	a := []trace.API{get("/a"), post("/b"), get("/c"), post("/d")}
	b := []trace.API{get("/a"), get("/x"), get("/c"), post("/d")}
	got := LCS(a, b)
	want := []trace.API{get("/a"), get("/c"), post("/d")}
	if len(got) != len(want) {
		t.Fatalf("LCS = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LCS[%d] = %v", i, got[i])
		}
	}
	if LCS(nil, a) != nil || LCS(a, nil) != nil {
		t.Fatal("LCS with empty input should be nil")
	}
}

// Property: LCS output is a subsequence of both inputs and is no longer
// than either.
func TestQuickLCSSubsequence(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := make([]trace.API, len(xs))
		for i, x := range xs {
			a[i] = get(string(rune('a' + x%8)))
		}
		b := make([]trace.API, len(ys))
		for i, y := range ys {
			b[i] = get(string(rune('a' + y%8)))
		}
		c := LCS(a, b)
		if len(c) > len(a) || len(c) > len(b) {
			return false
		}
		return apiSubseq(c, a) && apiSubseq(c, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func apiSubseq(p, s []trace.API) bool {
	i := 0
	for _, x := range s {
		if i < len(p) && p[i] == x {
			i++
		}
	}
	return i == len(p)
}

func TestLearnRemovesTransients(t *testing.T) {
	base := []trace.API{get("/a"), post("/b"), rpc("build"), get("/c")}
	t1 := append([]trace.API{auth()}, base...)
	// Run 2 has a transient repeat of /a in the middle.
	t2 := []trace.API{auth(), get("/a"), post("/b"), get("/x-transient"), rpc("build"), get("/c")}
	t3 := append([]trace.API{}, t1...)
	got := Learn([][]trace.API{t2, t1, t3}, nf())
	if len(got) != len(base) {
		t.Fatalf("Learn = %v, want %v", got, base)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("Learn[%d] = %v", i, got[i])
		}
	}
	if Learn(nil, nf()) != nil {
		t.Fatal("Learn(nil)")
	}
}

func newLib(t *testing.T) *Library {
	t.Helper()
	l := NewLibrary()
	l.AddAPIs("vm-create", "Compute", []trace.API{get("/a"), post("/b"), rpc("build"), get("/c"), post("/d")})
	l.AddAPIs("vm-delete", "Compute", []trace.API{get("/a"), post("/del"), rpc("terminate")})
	l.AddAPIs("vol-create", "Storage", []trace.API{post("/vol"), get("/vol-status")})
	return l
}

func TestLibraryLookupAndPosting(t *testing.T) {
	l := newLib(t)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.ByName("vm-create") == nil || l.ByName("ghost") != nil {
		t.Fatal("ByName broken")
	}
	cands := l.CandidatesForAPI(get("/a"))
	if cands.Len() != 2 || cands.Names() != 2 {
		t.Fatalf("candidates for /a = %d (%d names), want 2", cands.Len(), cands.Names())
	}
	cands = l.CandidatesForAPI(post("/vol"))
	if cands.Len() != 1 || cands.Name(0) != "vol-create" {
		t.Fatalf("candidates for /vol = %d", cands.Len())
	}
	if l.CandidatesForAPI(get("/never-seen")).Len() != 0 {
		t.Fatal("candidates for unknown API")
	}
	if l.MaxLen() != 5 {
		t.Fatalf("MaxLen = %d", l.MaxLen())
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTruncate(t *testing.T) {
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{get("/a"), post("/b"), get("/a"), post("/c")})
	symA, _ := l.Table.Lookup(get("/a"))
	tr := fp.Truncate(symA)
	if tr == nil || tr.Len() != 3 {
		t.Fatalf("Truncate at last /a: %v", tr)
	}
	if tr.Symbols[2] != symA {
		t.Fatal("truncation did not end at offending symbol")
	}
	symZ := rune(0xF000)
	if fp.Truncate(symZ) != nil {
		t.Fatal("Truncate with absent symbol should be nil")
	}
	// Original untouched.
	if fp.Len() != 4 {
		t.Fatal("Truncate mutated the original")
	}
}

func TestMatchRelaxed(t *testing.T) {
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{get("/a"), post("/b"), get("/c"), post("/d")})
	sym := func(a trace.API) rune { r, _ := l.Table.Lookup(a); return r }
	sA, sB, sC, sD := sym(get("/a")), sym(post("/b")), sym(get("/c")), sym(post("/d"))
	noise := rune(0xF123)

	// State-change order preserved, reads missing, noise interleaved:
	// matches (the paper's Fig 4 example: symbol A missing still matches).
	snap := []rune{noise, sB, noise, noise, sD}
	if !fp.MatchRelaxed(snap) {
		t.Fatal("relaxed match failed despite preserved state-change order")
	}
	// State-change out of order: no match.
	if fp.MatchRelaxed([]rune{sD, sB}) {
		t.Fatal("matched out-of-order state changes")
	}
	// Missing a state-change symbol: no match.
	if fp.MatchRelaxed([]rune{sB, noise}) {
		t.Fatal("matched with missing mandatory symbol")
	}
	// Strict match needs the reads too.
	if fp.MatchStrict(snap) {
		t.Fatal("strict match ignored missing reads")
	}
	if !fp.MatchStrict([]rune{sA, noise, sB, sC, sD}) {
		t.Fatal("strict match failed on full sequence")
	}
}

func TestMatchRelaxedLastSymbolMandatory(t *testing.T) {
	// A truncated fingerprint ending in a GET must still require that GET
	// (it is the offending API).
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{post("/b"), get("/c")})
	sym := func(a trace.API) rune { r, _ := l.Table.Lookup(a); return r }
	sB, sC := sym(post("/b")), sym(get("/c"))
	if fp.MatchRelaxed([]rune{sB}) {
		t.Fatal("matched without the trailing offending GET")
	}
	if !fp.MatchRelaxed([]rune{sB, sC}) {
		t.Fatal("failed with full mandatory sequence")
	}
}

func TestMatchRelaxedAllReadsFallback(t *testing.T) {
	// A fingerprint with no state-change symbols must require all its
	// symbols, not match everything.
	l := NewLibrary()
	fp := l.AddAPIs("list-op", "Misc", []trace.API{get("/x"), get("/y")})
	sym := func(a trace.API) rune { r, _ := l.Table.Lookup(a); return r }
	if fp.MatchRelaxed([]rune{sym(get("/x"))}) {
		t.Fatal("read-only fingerprint matched partial snapshot")
	}
	if !fp.MatchRelaxed([]rune{sym(get("/x")), sym(get("/y"))}) {
		t.Fatal("read-only fingerprint failed full snapshot")
	}
}

func TestWithoutRPC(t *testing.T) {
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{get("/a"), rpc("build"), post("/b")})
	lean := fp.WithoutRPC()
	if lean.Len() != 2 {
		t.Fatalf("WithoutRPC len = %d", lean.Len())
	}
	for _, a := range lean.APIs {
		if a.Kind == trace.RPC {
			t.Fatal("RPC survived pruning")
		}
	}
	if fp.Len() != 3 {
		t.Fatal("original mutated")
	}
}

func TestOverlap(t *testing.T) {
	l := NewLibrary()
	a := l.AddAPIs("a", "Compute", []trace.API{get("/1"), get("/2"), get("/3"), get("/4")})
	b := l.AddAPIs("b", "Network", []trace.API{get("/3"), get("/4"), get("/5")})
	if got := Overlap(a, b); got != 0.5 {
		t.Fatalf("Overlap(a,b) = %v, want 0.5", got)
	}
	if got := Overlap(b, a); got < 0.66 || got > 0.67 {
		t.Fatalf("Overlap(b,a) = %v, want 2/3", got)
	}
	empty := &Fingerprint{}
	if Overlap(empty, a) != 0 {
		t.Fatal("Overlap with empty fingerprint")
	}
}

func TestStatsByCategory(t *testing.T) {
	l := newLib(t)
	stats := l.StatsByCategory()
	if len(stats) != 2 {
		t.Fatalf("stats categories = %d", len(stats))
	}
	var compute *Stats
	for i := range stats {
		if stats[i].Category == "Compute" {
			compute = &stats[i]
		}
	}
	if compute == nil || compute.Count != 2 {
		t.Fatalf("compute stats = %+v", compute)
	}
	// vm-create len 5 (1 RPC), vm-delete len 3 (1 RPC): avg 4 with, 3 without.
	if compute.AvgLenWith != 4 || compute.AvgLenNoRPC != 3 {
		t.Fatalf("avg lens = %v / %v", compute.AvgLenWith, compute.AvgLenNoRPC)
	}
	if compute.UniqueRPC != 2 {
		t.Fatalf("unique RPC = %d", compute.UniqueRPC)
	}
}

// Property: Truncate never lengthens and always ends with the offending
// symbol when it occurs.
func TestQuickTruncate(t *testing.T) {
	f := func(seq []uint8, off uint8) bool {
		l := NewLibrary()
		apis := make([]trace.API, len(seq))
		for i, x := range seq {
			apis[i] = post(string(rune('a' + x%6)))
		}
		fp := l.AddAPIs("x", "C", apis)
		offAPI := post(string(rune('a' + off%6)))
		r, ok := l.Table.Lookup(offAPI)
		if !ok {
			return fp.Truncate(rune(0xF8FE)) == nil
		}
		tr := fp.Truncate(r)
		contains := false
		for _, s := range fp.Symbols {
			if s == r {
				contains = true
			}
		}
		if !contains {
			return tr == nil
		}
		return tr != nil && tr.Len() <= fp.Len() && tr.Symbols[tr.Len()-1] == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchExactIndexed(t *testing.T) {
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{post("/a"), get("/r"), post("/b"), post("/c")})
	sym := func(a trace.API) rune { r, _ := l.Table.Lookup(a); return r }
	sA, sB, sC := sym(post("/a")), sym(post("/b")), sym(post("/c"))
	noise := rune(0xF222)

	full := []rune{sA, noise, sB, sC}
	if !fp.MatchExactIndexed(NewIndex(full)) {
		t.Fatal("exact match failed on complete in-order pattern")
	}
	// Missing a mandatory symbol: exact fails where relaxed succeeds.
	partial := []rune{sB, sC}
	if fp.MatchExactIndexed(NewIndex(partial)) {
		t.Fatal("exact match tolerated an omission")
	}
	if !fp.MatchRelaxedIndexed(NewIndex(partial)) {
		t.Fatal("relaxed match should tolerate the omission")
	}
}

func TestMatchCorrelated(t *testing.T) {
	l := NewLibrary()
	fp := l.AddAPIs("op", "Compute", []trace.API{post("/a"), get("/r"), post("/b")})
	other := l.AddAPIs("other", "Compute", []trace.API{post("/x"), post("/b")})
	sym := func(a trace.API) rune { r, _ := l.Table.Lookup(a); return r }
	sA, sR, sB, sX := sym(post("/a")), sym(get("/r")), sym(post("/b")), sym(post("/x"))

	// The operation's own pattern: fully covered by its fingerprint.
	own := []rune{sA, sR, sR, sB} // includes an idempotent retry of /r
	if !fp.MatchCorrelated(NewIndex(own)) {
		t.Fatal("true operation failed correlated match on its own pattern")
	}
	// A different candidate explains only half the pattern: rejected.
	if other.MatchCorrelated(NewIndex(own)) {
		t.Fatal("foreign candidate passed coverage on another op's pattern")
	}
	// The offending (final) symbol must be present.
	if fp.MatchCorrelated(NewIndex([]rune{sA, sR})) {
		t.Fatal("correlated match without the offending symbol")
	}
	// Empty pattern never matches.
	if fp.MatchCorrelated(NewIndex(nil)) {
		t.Fatal("correlated match on empty pattern")
	}
	_ = sX
}

func TestLearnVariantsKeepsBranches(t *testing.T) {
	// An operation with an async middle step: half the runs include
	// post(/async), half don't. Classic LCS drops it; variant learning
	// keeps both branches.
	withStep := []trace.API{post("/a"), post("/async"), post("/b")}
	without := []trace.API{post("/a"), post("/b")}
	traces := [][]trace.API{withStep, without, withStep, without, withStep}

	classic := Learn(traces, nf())
	if len(classic) != 2 {
		t.Fatalf("classic LCS = %v, want async step removed", classic)
	}

	variants := LearnVariants(traces, nf(), 2, 2)
	if len(variants) != 2 {
		t.Fatalf("variants = %d, want 2", len(variants))
	}
	// Highest support first: withStep (3 runs) then without (2 runs).
	if len(variants[0]) != 3 || len(variants[1]) != 2 {
		t.Fatalf("variant lengths = %d, %d", len(variants[0]), len(variants[1]))
	}
}

func TestLearnVariantsSupportThreshold(t *testing.T) {
	a := []trace.API{post("/a")}
	b := []trace.API{post("/b")}
	traces := [][]trace.API{a, a, a, b} // b seen once
	variants := LearnVariants(traces, nf(), 2, 4)
	if len(variants) != 1 || len(variants[0]) != 1 || variants[0][0] != post("/a") {
		t.Fatalf("variants = %v", variants)
	}
}

func TestLearnVariantsFallbackToLCS(t *testing.T) {
	// Every run unique (heavy transient noise): nothing reaches support 2,
	// so the classic LCS fingerprint is returned.
	traces := [][]trace.API{
		{post("/a"), get("/x1"), post("/b")},
		{post("/a"), get("/x2"), post("/b")},
		{post("/a"), get("/x3"), post("/b")},
	}
	variants := LearnVariants(traces, nf(), 2, 2)
	if len(variants) != 1 {
		t.Fatalf("variants = %d, want LCS fallback", len(variants))
	}
	want := []trace.API{post("/a"), post("/b")}
	if len(variants[0]) != 2 || variants[0][0] != want[0] || variants[0][1] != want[1] {
		t.Fatalf("fallback = %v", variants[0])
	}
}

func TestLearnVariantsMaxCap(t *testing.T) {
	traces := [][]trace.API{
		{post("/a")}, {post("/a")},
		{post("/b")}, {post("/b")},
		{post("/c")}, {post("/c")},
	}
	variants := LearnVariants(traces, nf(), 2, 2)
	if len(variants) != 2 {
		t.Fatalf("cap not applied: %d", len(variants))
	}
	if LearnVariants(nil, nf(), 1, 2) != nil {
		t.Fatal("empty input")
	}
}

// TestSliceViewMatchesRebuilt is the contract the detector's incremental
// context growth relies on: matching against a Slice view of a full
// snapshot index is equivalent to rebuilding the index from the
// sub-pattern at every β step.
func TestSliceViewMatchesRebuilt(t *testing.T) {
	l := NewLibrary()
	fps := []*Fingerprint{
		l.AddAPIs("op1", "Compute", []trace.API{post("/a"), get("/r"), post("/b"), post("/c")}),
		l.AddAPIs("op2", "Compute", []trace.API{post("/x"), post("/b")}),
		l.AddAPIs("op3", "Storage", []trace.API{post("/c"), get("/r")}),
	}
	// Patterns drawn from the allocated symbol set plus noise runes.
	var syms []rune
	for _, api := range l.Table.APIs() {
		if r, ok := l.Table.Lookup(api); ok {
			syms = append(syms, r)
		}
	}
	f := func(raw []uint8, loRaw, hiRaw uint8) bool {
		pattern := make([]rune, len(raw))
		for i, v := range raw {
			if int(v)%4 == 0 {
				pattern[i] = rune(0xF300 + int(v)) // noise
			} else {
				pattern[i] = syms[int(v)%len(syms)]
			}
		}
		lo := int(loRaw) % (len(pattern) + 1)
		hi := lo + int(hiRaw)%(len(pattern)-lo+1)
		view := NewIndex(pattern).Slice(lo, hi)
		rebuilt := NewIndex(pattern[lo:hi])
		if view.Len() != rebuilt.Len() {
			return false
		}
		for _, fp := range fps {
			if fp.MatchExactIndexed(view) != fp.MatchExactIndexed(rebuilt) ||
				fp.MatchRelaxedIndexed(view) != fp.MatchRelaxedIndexed(rebuilt) ||
				fp.MatchCorrelated(view) != fp.MatchCorrelated(rebuilt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceClampsBounds(t *testing.T) {
	idx := NewIndex([]rune{'a', 'b', 'c'})
	if got := idx.Slice(-5, 99).Len(); got != 3 {
		t.Fatalf("clamped slice len = %d, want 3", got)
	}
	if got := idx.Slice(2, 1).Len(); got != 0 {
		t.Fatalf("inverted slice len = %d, want 0", got)
	}
	// Nested views intersect (bounds are absolute positions in the
	// original sequence); a sub-view can never widen its parent.
	if got := idx.Slice(1, 3).Slice(2, 3); got.Len() != 1 {
		t.Fatalf("nested slice len = %d, want 1", got.Len())
	}
	if got := idx.Slice(1, 3).Slice(0, 99); got.Len() != 2 {
		t.Fatalf("nested slice did not clamp to parent: len = %d, want 2", got.Len())
	}
}
