package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/window"
)

// TestSameNameVariantsMatchedByOwnProgram is the regression test for the
// lean cache that keyed pruned fingerprints by Name+"@"+offending: a
// branched operation registers several fingerprints under one name, and
// the second variant was matched with the FIRST variant's pruned
// sequence. Here only the second variant's order (b, c, f) fits the
// stream, so the operation must be found — with pruning on and off.
func TestSameNameVariantsMatchedByOwnProgram(t *testing.T) {
	for _, cfg := range []Config{{Alpha: 8}, {Alpha: 8, DisablePruneRPC: true}} {
		lib := fingerprint.NewLibrary()
		lib.AddAPIs("op", "Compute", []trace.API{post("/c"), post("/b"), post("/f")})
		lib.AddAPIs("op", "Compute", []trace.API{post("/b"), post("/c"), post("/f")})
		a := New(lib, cfg)
		s := &stream{a: a}
		s.rest(post("/b"), 200, 1, "op")
		s.rest(post("/c"), 200, 1, "op")
		s.rest(post("/f"), 500, 1, "op")
		a.Close()
		reps := a.Reports()
		if len(reps) != 1 {
			t.Fatalf("DisablePruneRPC=%v: %d reports, want 1", cfg.DisablePruneRPC, len(reps))
		}
		if got := reps[0].Candidates; len(got) != 1 || got[0] != "op" {
			t.Fatalf("DisablePruneRPC=%v: candidates %v, want [op]", cfg.DisablePruneRPC, got)
		}
		if reps[0].CandidatesByErrorOnly != 1 {
			t.Fatalf("CandidatesByErrorOnly = %d, want 1 (two variants, one name)", reps[0].CandidatesByErrorOnly)
		}
	}
}

// TestPerformanceReportsListAVariantOnce: a performance report names a
// branched operation once, however many of its variants match the
// window, as the operational report over the same snapshot does — under
// the relaxed matcher, with RPCs kept, and under the strict matcher.
func TestPerformanceReportsListAVariantOnce(t *testing.T) {
	lib := fingerprint.NewLibrary()
	lib.AddAPIs("boot", "Compute", []trace.API{post("/a"), post("/b")})
	lib.AddAPIs("boot", "Compute", []trace.API{post("/a"), get("/c"), post("/b")})
	fault, snap := frozen(post("/a"), get("/c"), post("/b"))
	for name, cfg := range map[string]Config{
		"relaxed":  {Alpha: 16},
		"rpc-kept": {Alpha: 16, DisablePruneRPC: true},
		"strict":   {Alpha: 16, StrictMatch: true},
	} {
		a := New(lib, cfg)
		op := a.Detect(fault, Operational, 0, snap)
		perf := a.Detect(fault, Performance, 0, snap)
		for _, rep := range []*Report{op, perf} {
			if got := rep.Candidates; len(got) != 1 || got[0] != "boot" || rep.Precision != op.Precision {
				t.Fatalf("%s %s: candidates %v θ %v, want [boot] θ %v", name, rep.Kind, got, rep.Precision, op.Precision)
			}
		}
	}
}

// TestRPCOffendingAPITruncatesThenPrunes pins the corner of the
// truncate-then-prune rule: when the offending API is an RPC and pruning
// is on, the fingerprint is cut at the RPC in the un-pruned sequence and
// the program ends at the last REST symbol before it — the symbols after
// the RPC must not be required.
func TestRPCOffendingAPITruncatesThenPrunes(t *testing.T) {
	lib := fingerprint.NewLibrary()
	lib.AddAPIs("op", "Compute", []trace.API{post("/a"), rpc("build"), post("/z")})
	a := New(lib, Config{Alpha: 8, SnapshotOnRPCErrors: true})
	s := &stream{a: a}
	s.rest(post("/a"), 200, 1, "op")
	s.rpcCall(rpc("build"), true, 1, "op") // the operation dies here; /z never happens
	s.filler(8)
	a.Close()
	reps := a.Reports()
	if len(reps) != 1 || reps[0].OffendingAPI != rpc("build") {
		t.Fatalf("reports = %d (offending %v), want one for the RPC", len(reps), reps)
	}
	if got := reps[0].Candidates; len(got) != 1 || got[0] != "op" {
		t.Fatalf("candidates %v, want [op]", got)
	}
}

// frozen freezes a snapshot of REST exchanges, one per API, the last of
// which answers with status 500 and is the fault, as its window's last
// message.
func frozen(apis ...trace.API) (trace.Event, *window.Snapshot) {
	var evs []trace.Event
	s := &stream{emit: func(ev trace.Event) { evs = append(evs, ev) }}
	for i, api := range apis {
		switch {
		case api.Kind == trace.RPC:
			s.rpcCall(api, false, 1, "op")
		case i == len(apis)-1:
			s.rest(api, 500, 1, "op")
		default:
			s.rest(api, 200, 1, "op")
		}
	}
	win := window.New(len(evs))
	for _, ev := range evs {
		win.Push(ev)
	}
	var snap *window.Snapshot
	win.Arm(func(s *window.Snapshot) { snap = s })
	win.Flush()
	return evs[len(evs)-1], snap
}

// TestOpdetectSymbolCounters asserts the matcher-health counters: per
// detection, the snapshot pattern's size and the request-side events
// whose API has no symbol (RPC requests the pruning drops are neither).
func TestOpdetectSymbolCounters(t *testing.T) {
	fault, snap := frozen(get("/list"), get("/nobody-fingerprinted-this"), post("/a1"),
		rpc("build"), rpc("unknown-rpc"), get("/nor-this"), post("/a2"))
	for _, tc := range []struct {
		cfg            Config
		known, unknown uint64
	}{
		{Config{Alpha: 16}, 3, 2},
		{Config{Alpha: 16, DisablePruneRPC: true}, 4, 3},
	} {
		a := newAnalyzer(tc.cfg)
		known0, unknown0 := mPatternSyms.Value(), mUnknownSyms.Value()
		rep := a.Detect(fault, Operational, 0, snap)
		if len(rep.Candidates) == 0 {
			t.Fatalf("no candidates for %v", rep.OffendingAPI)
		}
		if got := mPatternSyms.Value() - known0; got != tc.known {
			t.Errorf("DisablePruneRPC=%v: pattern_symbols += %d, want %d", tc.cfg.DisablePruneRPC, got, tc.known)
		}
		if got := mUnknownSyms.Value() - unknown0; got != tc.unknown {
			t.Errorf("DisablePruneRPC=%v: unknown_symbols += %d, want %d", tc.cfg.DisablePruneRPC, got, tc.unknown)
		}
	}
}

// seededLibraryAndStream draws a library with the shapes the compiled
// matcher must get right (same-name variants, RPC symbols, repeated
// symbols, read-only operations) and a faulty interleaving of its
// operations, all from one seed.
func seededLibraryAndStream(seed int64) (*fingerprint.Library, []trace.Event) {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []trace.API{
		get("/a"), get("/b"), get("/c"), post("/d"), post("/e"), post("/f"), post("/g"),
		rpc("x"), rpc("y"), rpc("z"),
	}
	lib := fingerprint.NewLibrary()
	var ops [][]trace.API
	for i := 0; i < 24; i++ {
		apis := make([]trace.API, 2+rng.Intn(7))
		for j := range apis {
			apis[j] = alphabet[rng.Intn(len(alphabet))]
		}
		ops = append(ops, apis)
		lib.AddAPIs("op"+itoa(i%16), "Compute", apis) // 16 names: the last 8 are variants
	}
	var evs []trace.Event
	s := &stream{emit: func(ev trace.Event) { evs = append(evs, ev) }}
	type run struct {
		op   []trace.API
		name string
		id   uint64
		at   int
	}
	var live []*run
	for id := uint64(1); id <= 400 || len(live) > 0; id++ {
		if id <= 400 {
			i := rng.Intn(len(ops))
			live = append(live, &run{op: ops[i], name: "op" + itoa(i%16), id: id})
		}
		for n := 1 + rng.Intn(3); n > 0 && len(live) > 0; n-- {
			k := rng.Intn(len(live))
			r := live[k]
			api := r.op[r.at]
			fail := rng.Intn(12) == 0
			if api.Kind == trace.RPC {
				s.rpcCall(api, fail, r.id, r.name)
			} else if fail {
				s.rest(api, 500, r.id, r.name)
			} else {
				s.rest(api, 200, r.id, r.name)
			}
			if r.at++; fail || r.at == len(r.op) {
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
	return lib, evs
}

// TestPooledJSONMatchesInlineReports holds the detect pool to the inline
// path byte for byte: one seeded faulty stream, every matcher mode,
// DetectWorkers 0 vs 1 vs 4 — the JSON of every report must be equal.
// The workers share the compiled library and own their scratch; run
// under -race -count=10 this is the test that would see a shared buffer.
func TestPooledJSONMatchesInlineReports(t *testing.T) {
	lib, evs := seededLibraryAndStream(42)
	run := func(cfg Config) []byte {
		a := New(lib, cfg)
		for _, ev := range evs {
			a.Ingest(ev)
		}
		a.Close()
		if len(a.Reports()) < 50 {
			t.Fatalf("only %d reports: generator degenerated", len(a.Reports()))
		}
		out, err := json.Marshal(a.Reports())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, cfg := range []Config{
		{Alpha: 48},
		{Alpha: 48, DisablePruneRPC: true, SnapshotOnRPCErrors: true},
		{Alpha: 48, StrictMatch: true},
		{Alpha: 48, GrowToCover: true},
	} {
		inline := run(cfg)
		for _, workers := range []int{1, 4} {
			cfg.DetectWorkers, cfg.DetectBacklog = workers, 2
			if pooled := run(cfg); !bytes.Equal(inline, pooled) {
				t.Fatalf("%+v: pooled reports differ from inline", cfg)
			}
		}
	}
}

// TestDetectAllocsIndependentOfCandidates pins steady-state detection to
// what the Report keeps: a warmed inline detect allocates a small
// constant, the same for four candidate fingerprints as for four hundred,
// and none of it is the snapshot's table or the candidates' bound
// programs, which live in the scratch.
func TestDetectAllocsIndependentOfCandidates(t *testing.T) {
	allocs := func(candidates int) float64 {
		lib := fingerprint.NewLibrary()
		for i := 0; i < candidates; i++ {
			lib.AddAPIs("op"+itoa(i), "Compute", []trace.API{get("/list"), post("/p" + itoa(i%7)), rpc("build"), post("/boom")})
		}
		a := New(lib, Config{Alpha: 16})
		fault, snap := frozen(get("/list"), post("/p3"), rpc("build"), get("/list"), post("/boom"))
		if rep := a.Detect(fault, Operational, 0, snap); rep.CandidatesByErrorOnly != candidates || len(rep.Candidates) == 0 {
			t.Fatalf("%d candidates: by-error-only %d, matched %d", candidates, rep.CandidatesByErrorOnly, len(rep.Candidates))
		}
		cands := lib.CandidatesForAPI(post("/boom"))
		if n := testing.AllocsPerRun(50, func() { a.index(&a.scratch, cands, true, false, false) }); n != 0 {
			t.Fatalf("%d candidates: a warmed table build and binding allocates %.0f, want 0", candidates, n)
		}
		return testing.AllocsPerRun(50, func() { a.Detect(fault, Operational, 0, snap) })
	}
	few, many := allocs(4), allocs(400)
	// The Report, its Errors and its Candidates.
	if few > 4 || many > 4 {
		t.Fatalf("warmed detect allocates %.0f (4 candidates) / %.0f (400 candidates), want <= 4", few, many)
	}
}
