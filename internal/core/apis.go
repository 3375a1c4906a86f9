package core

import (
	"gretel/internal/symbol"
	"gretel/internal/trace"
	"gretel/internal/tsoutliers"
)

// An event's window word: what ingest knows about it that detection
// reads, packed so the pattern builder and the error scan walk 4 bytes
// per event instead of the events themselves. The symbol sits in the
// high half (every rune of symbol.Table fits 16 bits).
const (
	wRequest  uint32 = 1 << iota // opens an exchange: its symbol may enter the pattern
	wRPC                         // an RPC API: pruned from the pattern unless DisablePruneRPC
	wFaulty                      // an error status: the error scan collects it
	wKnown                       // the API has a symbol
	wSymShift = 16
)

// The constant overflows, failing the build, if a symbol stops fitting
// the word's high half.
const _ = uint16(symbol.Max - 1)

// apiRec is everything the analyzer keeps about one API: the word bits
// of its identity, looked up in the library's symbol table once, and its
// latency state.
type apiRec struct {
	api  trace.API
	word uint32 // wRPC, wKnown and the symbol
	// seen is the symbol table's size when an unknown API was last
	// looked up; a larger table is looked up again.
	seen int
	lat  *apiLat // nil until the API's first paired response
}

// apiSlotBits sizes the front table at 4096 slots (16 KiB), about six
// per API of a full OpenStack deployment (643 public APIs, §6): the 464
// APIs of the storm bench stream then share a slot about half as often
// as at 2048, where one in ten did.
const apiSlotBits = 12

// apiTable resolves each event's API once, at ingest, for latency
// tracking and detection alike. A direct-mapped front table keyed on the
// API's kind, lengths and sampled bytes answers a repeat with one
// comparison, no hashing of the strings; index, the map behind it, holds
// every API, so two that share a slot both stay resolvable. Records are
// dense, in first-sighting order. It is owned by the receiver goroutine:
// detect workers read words from snapshots, never the table.
type apiTable struct {
	syms  *symbol.Table
	opt   tsoutliers.Options
	front [1 << apiSlotBits]int32 // record index + 1, 0 when empty
	index map[trace.API]int32
	recs  []apiRec
}

func newAPITable(syms *symbol.Table, opt tsoutliers.Options) apiTable {
	return apiTable{syms: syms, opt: opt, index: make(map[trace.API]int32)}
}

// slot picks api's front-table slot from its service, kind, string
// lengths and method's first byte (GET and PUT of one path differ only
// there), and the middle and last eight bytes of its path (of its method
// for an RPC), or three bytes when shorter.
func (t *apiTable) slot(api *trace.API) *int32 {
	s := api.Path
	if s == "" {
		s = api.Method
	}
	n := len(s)
	h := uint64(api.Service) | uint64(api.Kind)<<8 | uint64(len(api.Method))<<16 | uint64(n)<<32
	if api.Method != "" {
		h |= uint64(api.Method[0]) << 24
	}
	if n >= 8 {
		h ^= le64(s[n/2-4:])<<1 ^ le64(s[n-8:])<<3
	} else if n > 0 {
		h ^= uint64(s[0])<<40 | uint64(s[n/2])<<48 | uint64(s[n-1])<<56
	}
	return &t.front[h*0x9E3779B97F4A7C15>>(64-apiSlotBits)]
}

// le64 reads the first eight bytes of s little-endian.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// resolve returns api's record, creating it on first sight. The pointer
// is valid until the next resolve.
func (t *apiTable) resolve(api *trace.API) *apiRec {
	f := t.slot(api)
	if i := *f; i > 0 && t.recs[i-1].api == *api {
		return t.recheck(&t.recs[i-1])
	}
	i, ok := t.index[*api]
	if !ok {
		t.recs = append(t.recs, apiRec{api: *api, seen: -1})
		i = int32(len(t.recs))
		t.index[*api] = i
	}
	*f = i
	return t.recheck(&t.recs[i-1])
}

// recheck looks rec's API up in the symbol table while it has no symbol
// and the table has grown since the last look — what a lookup at detect
// time would find.
func (t *apiTable) recheck(rec *apiRec) *apiRec {
	if rec.word&wKnown != 0 {
		return rec
	}
	if n := t.syms.Len(); rec.seen != n {
		rec.seen = n
		if rec.api.Kind == trace.RPC {
			rec.word = wRPC
		}
		if r, ok := t.syms.Lookup(rec.api); ok {
			rec.word |= wKnown | uint32(r)<<wSymShift
		}
	}
	return rec
}

// word resolves ev's API and returns ev's window word with the API's
// record. Ingest pushes the word; Detect fills it for snapshots frozen
// without words.
func (t *apiTable) word(ev *trace.Event) (uint32, *apiRec) {
	rec := t.resolve(&ev.API)
	w := rec.word
	if ev.Type.Request() {
		w |= wRequest
	}
	if ev.Faulty() {
		w |= wFaulty
	}
	return w, rec
}

// latency returns api's latency state, nil when it never paired.
func (t *apiTable) latency(api trace.API) *apiLat {
	if i, ok := t.index[api]; ok {
		return t.recs[i-1].lat
	}
	return nil
}
