package core

import (
	"fmt"
	"slices"
	"strings"
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
	tab := newAPITable(lib.Table)
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

// TestAddAPIsAfterNewPanics: New freezes the library, so adding a
// fingerprint afterwards panics, naming it, and leaves the library and
// its symbol table as they were — an API the library never learned keeps
// a word with no symbol.
func TestAddAPIsAfterNewPanics(t *testing.T) {
	lib := testLib()
	a := New(lib, Config{Alpha: 16})
	n, apis := lib.Len(), lib.Table.APIs()
	late := post("/late")
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, `"op-late"`) {
				t.Fatalf("AddAPIs after New: recovered %q, want a panic naming op-late", msg)
			}
		}()
		lib.AddAPIs("op-late", "Compute", []trace.API{get("/list"), late, post("/boom")})
	}()
	if lib.Len() != n || lib.ByName("op-late") != nil || !slices.Equal(lib.Table.APIs(), apis) {
		t.Fatalf("library changed: %d fingerprints (want %d), %d symbols (want %d)", lib.Len(), n, lib.Table.Len(), len(apis))
	}
	if _, ok := lib.Table.Lookup(late); ok {
		t.Fatal("the refused fingerprint's API has a symbol")
	}
	ev := trace.Event{Type: trace.RESTRequest, API: late}
	if w, _ := a.apis.word(&ev); w != wRequest || a.Word(&ev) != wRequest {
		t.Fatalf("unassigned API: words %#x, %#x, want only wRequest", w, a.Word(&ev))
	}
}
