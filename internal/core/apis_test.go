package core

import (
	"fmt"
	"testing"

	"gretel/internal/symbol"
	"gretel/internal/trace"
)

// wantWord is an API's record word the slow way: a symbol-table lookup.
func wantWord(syms *symbol.Table, api trace.API) uint32 {
	var w uint32
	if api.Kind == trace.RPC {
		w = wRPC
	}
	if r, ok := syms.Lookup(api); ok {
		w |= wKnown | uint32(r)<<wSymShift
	}
	return w
}

// TestAPITableFrontCollisions resolves APIs that share a front-table
// slot, alternately, so each evicts the other from the slot: every
// resolve must still return the API's own record, with its own word.
func TestAPITableFrontCollisions(t *testing.T) {
	lib := testLib()
	tab := newAPITable(lib.Table, Config{}.Latency)
	// Find APIs colliding with a fingerprinted one and with each other.
	known := post("/a1")
	group := []trace.API{known}
	for i := 0; len(group) < 3; i++ {
		api := get(fmt.Sprintf("/v2.1/servers/%06d/detail", i))
		if tab.slot(&api) == tab.slot(&known) {
			group = append(group, api)
		}
	}
	group = append(group, rpc("build"), rpc("build_and_run"))
	for round := 0; round < 3; round++ {
		for _, api := range group {
			rec := tab.resolve(&api)
			if rec.api != api || rec.word != wantWord(lib.Table, api) {
				t.Fatalf("round %d: %v resolved to %v word %#x, want word %#x", round, api, rec.api, rec.word, wantWord(lib.Table, api))
			}
		}
	}
	if len(tab.recs) != len(group) || len(tab.index) != len(group) {
		t.Fatalf("%d records, %d index entries for %d APIs", len(tab.recs), len(tab.index), len(group))
	}
	if tab.recs[0].word&wKnown == 0 || tab.recs[1].word&wKnown != 0 {
		t.Fatalf("words %#x, %#x: the fingerprinted API must be known, the other not", tab.recs[0].word, tab.recs[1].word)
	}
}

// TestAPITableLateSymbol sights an API before the library assigns it a
// symbol: its word has none then, and the first resolve after the table
// grows must find the symbol a live Lookup finds — in the pattern too.
func TestAPITableLateSymbol(t *testing.T) {
	lib := testLib()
	a := New(lib, Config{Alpha: 16})
	late := post("/late")
	ev := trace.Event{Type: trace.RESTRequest, API: late}
	if w, _ := a.apis.word(&ev); w != wRequest {
		t.Fatalf("unassigned API: word %#x, want only wRequest", w)
	}
	lib.AddAPIs("op-late", "Compute", []trace.API{get("/list"), late, post("/boom")})
	w, _ := a.apis.word(&ev)
	r, ok := lib.Table.Lookup(late)
	if !ok || w != wRequest|wKnown|uint32(r)<<wSymShift {
		t.Fatalf("after assignment: word %#x, Lookup %q %v", w, r, ok)
	}
	fault, snap := frozen(get("/list"), late, post("/boom"))
	if rep := a.Detect(fault, Operational, 0, snap); len(rep.Candidates) != 1 || rep.Candidates[0] != "op-late" {
		t.Fatalf("candidates %v, want [op-late]", rep.Candidates)
	}
}
