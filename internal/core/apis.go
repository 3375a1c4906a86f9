package core

import (
	"gretel/internal/symbol"
	"gretel/internal/trace"
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
// of its identity, computed once when the record is created, and its
// latency state.
type apiRec struct {
	api  trace.API
	word uint32  // apiWord's bits
	lat  *apiLat // nil until the API's first paired response
}

// apiWord returns the word bits of api's identity: wRPC for an RPC, and
// wKnown with its symbol when the library has one. The library is frozen
// at New, so the bits never change.
func apiWord(syms *symbol.Table, api *trace.API) uint32 {
	var w uint32
	if api.Kind == trace.RPC {
		w = wRPC
	}
	if r, ok := syms.Lookup(*api); ok {
		w |= wKnown | uint32(r)<<wSymShift
	}
	return w
}

// eventWord adds ev's own bits to its API's: whether it opens an
// exchange and whether it carries an error status.
func eventWord(api uint32, ev *trace.Event) uint32 {
	if ev.Type.Request() {
		api |= wRequest
	}
	if ev.Faulty() {
		api |= wFaulty
	}
	return api
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
// detect workers read words from snapshots, never the table, and the
// latency stage's fold reaches only records' apiLat values, through the
// pointers its samples carry (recs may move as it grows).
type apiTable struct {
	syms  *symbol.Table
	front [1 << apiSlotBits]int32 // record index + 1, 0 when empty
	index map[trace.API]int32
	recs  []apiRec
}

func newAPITable(syms *symbol.Table) apiTable {
	return apiTable{syms: syms, index: make(map[trace.API]int32)}
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
		return &t.recs[i-1]
	}
	i, ok := t.index[*api]
	if !ok {
		t.recs = append(t.recs, apiRec{api: *api, word: apiWord(t.syms, api)})
		i = int32(len(t.recs))
		t.index[*api] = i
	}
	*f = i
	return &t.recs[i-1]
}

// word resolves ev's API and returns ev's window word, as ingest pushes
// it, with the API's record.
func (t *apiTable) word(ev *trace.Event) (uint32, *apiRec) {
	rec := t.resolve(&ev.API)
	return eventWord(rec.word, ev), rec
}

// latency returns api's latency state, nil when it never paired.
func (t *apiTable) latency(api trace.API) *apiLat {
	if i, ok := t.index[api]; ok {
		return t.recs[i-1].lat
	}
	return nil
}
