// Package fingerprint implements GRETEL's operational fingerprints:
// Algorithm 1 (offline learning from repeated isolated executions) and the
// matching machinery Algorithm 2 builds on. The library is compiled once,
// as fingerprints are added (program.go): truncation at the offending API
// and RPC pruning are O(1) prefix views of the compiled form, not per-fault
// copies; matching is the relaxed state-change-preserving walk over a dense
// occurrence index of the snapshot; candidates come from per-symbol posting
// lists. The naive per-fault path survives as the test oracle only
// (reference_test.go).
//
// A fingerprint is the most precise API sequence identifying one
// high-level administrative task. Learning filters noise (heartbeats,
// Keystone auth, repeated idempotent calls) from each captured trace and
// intersects the runs with a longest-common-subsequence pass so transient
// invocations drop out. The result is rendered over the symbol table as a
// regular expression in which state-change APIs (POST/PUT/DELETE, RPCs)
// are mandatory literals and read-only APIs carry a '*' (§5.3.1, §6).
package fingerprint

import (
	"fmt"
	"sort"
	"strings"

	"gretel/internal/symbol"
	"gretel/internal/trace"
)

// Fingerprint is one learned operational fingerprint.
type Fingerprint struct {
	// Name identifies the operation (the Tempest test name).
	Name string
	// Category is the operation's Table 1 category name.
	Category string
	// APIs is the learned API sequence after noise filtering and LCS.
	APIs []trace.API
	// Symbols is APIs encoded through the library's symbol table.
	Symbols []rune
	// state[i] reports whether Symbols[i] is state-changing.
	state []bool
	// services is the set of services the APIs touch: bit s for
	// trace.Service s.
	services uint32
	// lib and id locate the compiled form (nil/0 for a fingerprint not
	// registered through Library.AddAPIs).
	lib *Library
	id  int32
}

// Len returns the fingerprint length in symbols.
func (f *Fingerprint) Len() int { return len(f.Symbols) }

// Services returns the services the fingerprint's APIs touch as a
// bitmask: bit s is set for trace.Service s.
func (f *Fingerprint) Services() uint32 { return f.services }

// StateChange reports whether symbol i is a mandatory (state-change)
// literal.
func (f *Fingerprint) StateChange(i int) bool { return f.state[i] }

// SymbolSet returns the distinct symbols in the fingerprint.
func (f *Fingerprint) SymbolSet() map[rune]bool {
	out := make(map[rune]bool, len(f.Symbols))
	for _, r := range f.Symbols {
		out[r] = true
	}
	return out
}

// whole returns the fingerprint's untruncated, unpruned match program.
// Only fingerprints registered through Library.AddAPIs are compiled; any
// other value yields the zero Program, which never matches.
func (f *Fingerprint) whole() Program {
	if f.lib == nil {
		return Program{}
	}
	return f.lib.program(f.id, int32(len(f.Symbols)), false)
}

// MatchRelaxedIndexed is Program.MatchRelaxed for the whole fingerprint.
func (f *Fingerprint) MatchRelaxedIndexed(idx Index) bool { return f.whole().MatchRelaxed(idx) }

// MatchStrict is Program.MatchStrict for the whole fingerprint.
func (f *Fingerprint) MatchStrict(snapshot []rune) bool { return f.whole().MatchStrict(snapshot) }

// Overlap computes |sym(f) ∩ sym(g)| / |sym(f)| — the Fig 5 overlap
// measure between two fingerprints, asymmetric in f.
func Overlap(f, g *Fingerprint) float64 {
	fs := f.SymbolSet()
	if len(fs) == 0 {
		return 0
	}
	gs := g.SymbolSet()
	n := 0
	for r := range fs {
		if gs[r] {
			n++
		}
	}
	return float64(n) / float64(len(fs))
}

// NoiseFilter implements FILTER_NOISE from Algorithm 1: it removes
// heartbeat/status RPCs, common Keystone REST invocations, and repeat
// occurrences of idempotent REST actions for a specific URI.
type NoiseFilter struct {
	// NoiseAPIs are exact APIs always pruned (heartbeats, auth calls).
	NoiseAPIs map[trace.API]bool
	// NoiseServices prunes every API owned by these services (Keystone).
	NoiseServices map[trace.Service]bool
	// CollapseRepeats removes consecutive duplicate idempotent (GET/HEAD)
	// invocations of the same API.
	CollapseRepeats bool
}

// NewNoiseFilter returns the standard filter configured per §5: the given
// noise APIs (heartbeat RPCs and the common Keystone auth invocations)
// plus idempotent-repeat collapsing. Note that only the *common* Keystone
// calls are noise — admin tasks that legitimately query Keystone (listing
// projects, users) keep those APIs in their fingerprints.
func NewNoiseFilter(noiseAPIs []trace.API) *NoiseFilter {
	m := make(map[trace.API]bool, len(noiseAPIs))
	for _, a := range noiseAPIs {
		m[a] = true
	}
	return &NoiseFilter{
		NoiseAPIs:       m,
		NoiseServices:   map[trace.Service]bool{},
		CollapseRepeats: true,
	}
}

// Filter returns the API sequence with noise removed.
func (nf *NoiseFilter) Filter(apis []trace.API) []trace.API {
	out := make([]trace.API, 0, len(apis))
	for _, a := range apis {
		if nf.NoiseAPIs != nil && nf.NoiseAPIs[a] {
			continue
		}
		if nf.NoiseServices != nil && nf.NoiseServices[a.Service] {
			continue
		}
		if nf.CollapseRepeats && len(out) > 0 && out[len(out)-1] == a &&
			(a.Method == "GET" || a.Method == "HEAD") {
			continue
		}
		out = append(out, a)
	}
	return out
}

// LCS computes the longest common subsequence of two API sequences — the
// pruning step of Algorithm 1 that keeps only APIs common to every
// successful re-execution.
func LCS(a, b []trace.API) []trace.API {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	out := make([]trace.API, 0, dp[0][0])
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}

// Learn implements GET_OPERATIONAL_FINGERPRINT (Algorithm 1): sort traces
// by length, noise-filter each, and fold them together with LCS so only
// the APIs common to every successful iteration remain.
func Learn(traces [][]trace.API, nf *NoiseFilter) []trace.API {
	if len(traces) == 0 {
		return nil
	}
	sorted := make([][]trace.API, len(traces))
	copy(sorted, traces)
	// Sort by trace length ascending (shortest first seeds the fold).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && len(sorted[j]) < len(sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	fp := nf.Filter(sorted[0])
	for _, tr := range sorted[1:] {
		fp = LCS(fp, nf.Filter(tr))
	}
	return fp
}

// LearnVariants is the branched-fingerprint extension the paper leaves as
// future work (§8 limitation 6: "GRETEL does not handle asynchronous
// calls that occur in the middle of an operation and lead to a branched
// fingerprint. Currently, GRETEL's re-execution of operations removes
// truly asynchronous APIs from the fingerprint."). Instead of collapsing
// all runs with LCS, it groups noise-filtered traces by exact sequence
// and keeps each variant observed in at least minSupport runs (up to
// maxVariants, by support). When no variant reaches support, it falls
// back to the classic LCS fingerprint.
func LearnVariants(traces [][]trace.API, nf *NoiseFilter, minSupport, maxVariants int) [][]trace.API {
	if len(traces) == 0 {
		return nil
	}
	if minSupport < 1 {
		minSupport = 1
	}
	if maxVariants < 1 {
		maxVariants = 2
	}
	type group struct {
		apis    []trace.API
		support int
		first   int
	}
	groups := map[string]*group{}
	var order []string
	for i, tr := range traces {
		filtered := nf.Filter(tr)
		key := apiKey(filtered)
		g, ok := groups[key]
		if !ok {
			g = &group{apis: filtered, first: i}
			groups[key] = g
			order = append(order, key)
		}
		g.support++
	}
	var qualified []*group
	for _, key := range order {
		if g := groups[key]; g.support >= minSupport {
			qualified = append(qualified, g)
		}
	}
	// Highest support first; ties by first appearance for determinism.
	sort.SliceStable(qualified, func(i, j int) bool {
		if qualified[i].support != qualified[j].support {
			return qualified[i].support > qualified[j].support
		}
		return qualified[i].first < qualified[j].first
	})
	if len(qualified) == 0 {
		return [][]trace.API{Learn(traces, nf)}
	}
	if len(qualified) > maxVariants {
		qualified = qualified[:maxVariants]
	}
	out := make([][]trace.API, len(qualified))
	for i, g := range qualified {
		out[i] = g.apis
	}
	return out
}

func apiKey(apis []trace.API) string {
	var b strings.Builder
	for _, a := range apis {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Library holds every learned fingerprint, the shared symbol table, and
// their compiled form (program.go): per-fingerprint match programs in two
// flat stores, and the per-symbol posting lists used to pre-select
// candidate operations for a fault (GET_POSSIBLE_OFFENDING_OPERATIONS in
// Algorithm 2). AddAPIs compiles eagerly; once the last fingerprint is
// added the library is immutable and safe for concurrent readers.
type Library struct {
	Table  *symbol.Table
	fps    []*Fingerprint
	byName map[string]*Fingerprint

	forms   [][2]form    // by fingerprint index: unpruned, RPC-pruned
	runes   []rune       // symbol store the forms point into
	counts  []int32      // prefix-count store the forms point into
	posting []Candidates // by symbol slot (rune - symbol.Base)
}

// NewLibrary returns an empty library over a fresh symbol table.
func NewLibrary() *Library {
	return &Library{
		Table:  symbol.NewTable(),
		byName: make(map[string]*Fingerprint),
	}
}

// Add learns a fingerprint from traces and registers it. It returns the
// stored fingerprint. Adding a duplicate name replaces the previous entry
// in the name index but keeps library order stable for the original.
func (l *Library) Add(name, category string, traces [][]trace.API, nf *NoiseFilter) *Fingerprint {
	apis := Learn(traces, nf)
	return l.AddAPIs(name, category, apis)
}

// AddAPIs registers a fingerprint from an already-learned API sequence
// and compiles it.
func (l *Library) AddAPIs(name, category string, apis []trace.API) *Fingerprint {
	id := int32(len(l.fps))
	fp := &Fingerprint{Name: name, Category: category, APIs: apis, lib: l, id: id}
	fp.Symbols = make([]rune, len(apis))
	fp.state = make([]bool, len(apis))
	for i, a := range apis {
		fp.Symbols[i] = l.Table.Assign(a)
		fp.state[i] = a.StateChanging()
		fp.services |= 1 << a.Service
	}
	l.fps = append(l.fps, fp)
	_, variant := l.byName[name]
	l.byName[name] = fp
	l.forms = append(l.forms, l.compile(fp))

	// One posting per distinct symbol, cut after its last occurrence.
	seen := make(map[rune]bool, len(apis))
	for i := len(fp.Symbols) - 1; i >= 0; i-- {
		r := fp.Symbols[i]
		if seen[r] {
			continue
		}
		seen[r] = true
		s, _ := slot(r)
		for len(l.posting) <= s {
			l.posting = append(l.posting, Candidates{lib: l})
		}
		ps := &l.posting[s]
		first := int32(len(ps.list))
		if variant {
			for _, e := range ps.list {
				if l.fps[e.fp].Name == name {
					first = e.first
					break
				}
			}
		}
		if first == int32(len(ps.list)) {
			ps.names++
		}
		e := posting{fp: id, cut: int32(i) + 1, first: first}
		for m := range e.bind {
			e.bind[m] = bindingOf(l.program(id, e.cut, m == 1))
		}
		ps.list = append(ps.list, e)
	}
	return fp
}

// Len reports the number of fingerprints (the paper's N).
func (l *Library) Len() int { return len(l.fps) }

// All returns every fingerprint in registration order.
func (l *Library) All() []*Fingerprint { return l.fps }

// ByName returns the named fingerprint, or nil.
func (l *Library) ByName(name string) *Fingerprint { return l.byName[name] }

// Candidates returns the fingerprints containing the offending symbol —
// the operations that could possibly contain the faulty API.
func (l *Library) Candidates(offending rune) Candidates {
	s, ok := slot(offending)
	if !ok || s >= len(l.posting) {
		return Candidates{}
	}
	return l.posting[s]
}

// CandidatesForAPI resolves the API through the symbol table first.
func (l *Library) CandidatesForAPI(api trace.API) Candidates {
	r, ok := l.Table.Lookup(api)
	if !ok {
		return Candidates{}
	}
	return l.Candidates(r)
}

// MaxLen returns FPmax — the size of the largest fingerprint across all
// operations (384 in the paper's characterization).
func (l *Library) MaxLen() int {
	max := 0
	for _, fp := range l.fps {
		if fp.Len() > max {
			max = fp.Len()
		}
	}
	return max
}

// Stats summarizes fingerprints per category: count and average length
// with and without RPC symbols (Table 1's last columns).
type Stats struct {
	Category    string
	Count       int
	AvgLenWith  float64
	AvgLenNoRPC float64
	UniqueREST  int
	UniqueRPC   int
}

// StatsByCategory aggregates Table 1 style statistics.
func (l *Library) StatsByCategory() []Stats {
	type agg struct {
		count, lenWith, lenNo int
		rest, rpc             map[trace.API]bool
	}
	byCat := map[string]*agg{}
	var order []string
	for _, fp := range l.fps {
		a, ok := byCat[fp.Category]
		if !ok {
			a = &agg{rest: map[trace.API]bool{}, rpc: map[trace.API]bool{}}
			byCat[fp.Category] = a
			order = append(order, fp.Category)
		}
		a.count++
		for _, api := range fp.APIs {
			if api.Kind == trace.RPC {
				a.rpc[api] = true
			} else {
				a.rest[api] = true
				a.lenNo++
			}
			a.lenWith++
		}
	}
	out := make([]Stats, 0, len(order))
	for _, cat := range order {
		a := byCat[cat]
		out = append(out, Stats{
			Category:    cat,
			Count:       a.count,
			AvgLenWith:  float64(a.lenWith) / float64(a.count),
			AvgLenNoRPC: float64(a.lenNo) / float64(a.count),
			UniqueREST:  len(a.rest),
			UniqueRPC:   len(a.rpc),
		})
	}
	return out
}

// String renders library-level info.
func (l *Library) String() string {
	return fmt.Sprintf("fingerprint.Library{n=%d, FPmax=%d, symbols=%d}", l.Len(), l.MaxLen(), l.Table.Len())
}
