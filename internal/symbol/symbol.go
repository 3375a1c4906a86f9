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
	"sort"
	"sync"
	"sync/atomic"

	"gretel/internal/trace"
)

// Base is the first rune handed out. U+E000 starts the BMP private-use area.
const Base rune = 0xE000

// Max is one past the last assignable rune.
const Max rune = 0xF8FF + 1

// Table assigns stable runes to APIs. Assignment order determines the rune,
// so building the table deterministically (e.g. from a sorted API catalog)
// yields identical encodings across runs. Table is safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	byAPI  map[trace.API]rune
	byRune map[rune]trace.API
	next   rune
	// size is len(byAPI), readable without the lock.
	size atomic.Int32
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{
		byAPI:  make(map[trace.API]rune),
		byRune: make(map[rune]trace.API),
		next:   Base,
	}
}

// Assign returns the rune for api, allocating one if it has not been seen.
// It panics if the private-use area is exhausted (far beyond OpenStack's
// 643 APIs; exhaustion indicates a bug in the caller).
func (t *Table) Assign(api trace.API) rune {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.byAPI[api]; ok {
		return r
	}
	if t.next >= Max {
		panic("symbol: private-use area exhausted")
	}
	r := t.next
	t.next++
	t.byAPI[api] = r
	t.size.Add(1)
	t.byRune[r] = api
	return r
}

// Lookup returns the rune for api without allocating.
func (t *Table) Lookup(api trace.API) (rune, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.byAPI[api]
	return r, ok
}

// API returns the API a rune was assigned to.
func (t *Table) API(r rune) (trace.API, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	api, ok := t.byRune[r]
	return api, ok
}

// Len reports how many APIs have been assigned symbols. It takes no
// lock, so a reader may poll it per event to learn the table has grown.
func (t *Table) Len() int { return int(t.size.Load()) }

// APIs returns all assigned APIs in rune order (i.e. assignment order).
func (t *Table) APIs() []trace.API {
	t.mu.RLock()
	defer t.mu.RUnlock()
	runes := make([]rune, 0, len(t.byRune))
	for r := range t.byRune {
		runes = append(runes, r)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	out := make([]trace.API, len(runes))
	for i, r := range runes {
		out[i] = t.byRune[r]
	}
	return out
}
