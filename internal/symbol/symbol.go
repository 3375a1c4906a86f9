// Package symbol maps OpenStack API identities to single Unicode runes.
//
// GRETEL's operation detection matches fingerprints against message
// snapshots as strings, one symbol per API (§6 "Optimizations": "Since the
// number of unique OpenStack APIs is 643, we use Unicode encoding to assign
// a symbol to each API"). Assigning runes from the Basic Multilingual
// Plane private-use area (U+E000..U+F8FF, 6400 code points) comfortably
// covers the 643 public APIs and keeps the encoded strings valid UTF-8.
package symbol

import (
	"slices"

	"gretel/internal/trace"
)

// Base is the first rune handed out. U+E000 starts the BMP private-use area.
const Base rune = 0xE000

// Max is one past the last assignable rune.
const Max rune = 0xF8FF + 1

// Table assigns stable runes to APIs. Assignment order determines the rune,
// so building the table deterministically (e.g. from a sorted API catalog)
// yields identical encodings across runs. A table is built offline, with
// the fingerprint library that owns it, and only read once the library is
// frozen: it holds no lock, and any number of goroutines may read it
// while none assigns.
type Table struct {
	byAPI  map[trace.API]rune
	byRune []trace.API // in assignment order: rune Base+i is byRune[i]
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{byAPI: make(map[trace.API]rune)}
}

// Assign returns the rune for api, allocating one if it has not been seen.
// It panics if the private-use area is exhausted (far beyond OpenStack's
// 643 APIs; exhaustion indicates a bug in the caller).
func (t *Table) Assign(api trace.API) rune {
	if r, ok := t.byAPI[api]; ok {
		return r
	}
	r := Base + rune(len(t.byRune))
	if r >= Max {
		panic("symbol: private-use area exhausted")
	}
	t.byAPI[api] = r
	t.byRune = append(t.byRune, api)
	return r
}

// Lookup returns the rune for api without allocating.
func (t *Table) Lookup(api trace.API) (rune, bool) {
	r, ok := t.byAPI[api]
	return r, ok
}

// API returns the API a rune was assigned to.
func (t *Table) API(r rune) (trace.API, bool) {
	if i := int(r - Base); r >= Base && i < len(t.byRune) {
		return t.byRune[i], true
	}
	return trace.API{}, false
}

// Len reports how many APIs have been assigned symbols.
func (t *Table) Len() int { return len(t.byRune) }

// APIs returns all assigned APIs in rune order (i.e. assignment order).
func (t *Table) APIs() []trace.API { return slices.Clone(t.byRune) }
