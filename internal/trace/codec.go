// Event body codec: the one encoding of Event that travels in agent
// wire frames and WAL records. The envelope (magic, kind, seq, length,
// CRC32) belongs to internal/agent and internal/wal; the kind byte they
// carry names the body encoding that follows.
//
// BodyBinary ('B') is the only one — the compact record the paper's
// Bro agents streamed through Broccoli (§6). Integers are
// varints (signed ones zig-zag), strings a uvarint length plus bytes:
//
//	byte     body version (2)
//	uvarint  Seq
//	varint   Time: Unix seconds
//	uvarint  Time: nanoseconds, 0..999999999
//	varint   Time: zone offset, seconds east of UTC
//	byte     Type
//	byte     API.Service
//	byte     API.Kind
//	string   API.Method, API.Path
//	string   SrcNode, DstNode
//	endpoint SrcAddr, DstAddr
//	uvarint  ConnID
//	string   MsgID, CorrID
//	varint   Status
//	string   ErrorText
//	varint   WireBytes
//	uvarint  OpID
//	string   OpName
//
// An endpoint is fixed-width in memory (netip.AddrPort) and nearly so on
// the wire: one length byte — 0 (no address), 4 or 16 — that many
// address bytes, and the port as a uvarint. A zone is not carried: the
// agents strip it, since a captured packet has none. Version 1 spelled
// the endpoints as "ip:port" strings; nothing reads it — no log or agent
// that wrote it is deployed — so a v1 body is an unknown version like
// any other: skipped and counted on the wire, quarantined in a WAL.
// The encoding/json body that preceded both (kind 'E') went the same
// way; its round trip lives on in codec_test.go as the oracle the binary
// codec is fuzzed against.

package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"time"
)

// BodyBinary is the event body encoding, named by the kind byte of the
// enclosing frame.
const BodyBinary byte = 'B'

const (
	bodyVersion = 2
	// internMax and internMaxLen bound an Interner: at most internMax
	// strings of at most internMaxLen bytes each (128 KiB of string
	// data), however many distinct values a peer sends. Past either
	// bound a string is simply copied.
	internMax    = 1024
	internMaxLen = 128
)

// EventSizeHint estimates the length of ev's binary body: exact in the
// strings, with room for typical integers and two IPv4 endpoints. It
// sizes a buffer so the usual AppendEvent does not grow it; a longer
// body still encodes.
func EventSizeHint(ev *Event) int {
	return 80 + len(ev.API.Method) + len(ev.API.Path) +
		len(ev.SrcNode) + len(ev.DstNode) +
		len(ev.MsgID) + len(ev.CorrID) + len(ev.ErrorText) + len(ev.OpName)
}

// AppendEvent appends ev's binary body (BodyBinary) to dst and returns
// the extended buffer. The time's monotonic reading is not encoded.
func AppendEvent(dst []byte, ev *Event) []byte {
	_, offset := ev.Time.Zone()
	dst = append(dst, bodyVersion)
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binary.AppendVarint(dst, ev.Time.Unix())
	dst = binary.AppendUvarint(dst, uint64(ev.Time.Nanosecond()))
	dst = binary.AppendVarint(dst, int64(offset))
	dst = append(dst, byte(ev.Type), byte(ev.API.Service), byte(ev.API.Kind))
	dst = appendString(dst, ev.API.Method)
	dst = appendString(dst, ev.API.Path)
	dst = appendString(dst, ev.SrcNode)
	dst = appendString(dst, ev.DstNode)
	dst = appendEndpoint(dst, ev.SrcAddr)
	dst = appendEndpoint(dst, ev.DstAddr)
	dst = binary.AppendUvarint(dst, ev.ConnID)
	dst = appendString(dst, ev.MsgID)
	dst = appendString(dst, ev.CorrID)
	dst = binary.AppendVarint(dst, int64(ev.Status))
	dst = appendString(dst, ev.ErrorText)
	dst = binary.AppendVarint(dst, int64(ev.WireBytes))
	dst = binary.AppendUvarint(dst, ev.OpID)
	return appendString(dst, ev.OpName)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendEndpoint writes ep without its zone. By hand, because
// netip's AppendBinary is newer than go.mod's language version.
func appendEndpoint(dst []byte, ep netip.AddrPort) []byte {
	switch ip := ep.Addr(); {
	case ip.Is4():
		a := ip.As4()
		dst = append(append(dst, 4), a[:]...)
	case ip.Is6():
		a := ip.As16()
		dst = append(append(dst, 16), a[:]...)
	default:
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(ep.Port()))
}

// Decoder decodes event bodies of one stream — a transport connection
// or a WAL scan — and owns that stream's intern table, so the strings
// that repeat on every event (API method and path, nodes, operation
// name, error text) are allocated once per stream rather than once per
// event. The zero value is ready to use; a Decoder is not safe for
// concurrent use.
type Decoder struct {
	intern Interner
	// zone caches the last non-UTC fixed zone, so a stream stamped in
	// one local zone does not allocate a Location per event.
	zone       *time.Location
	zoneOffset int
}

// Decode decodes one event body of the given kind into ev, which shares
// no memory with body afterwards. Malformed input — an unknown kind or
// version, a length past the end of the body, trailing bytes — is an
// error, never a panic; ev is then unspecified.
func (d *Decoder) Decode(kind byte, body []byte, ev *Event) error {
	if kind != BodyBinary {
		return fmt.Errorf("trace: unknown event body kind %q", kind)
	}
	return d.decodeBinary(body, ev)
}

var (
	errShortBody = errors.New("trace: event body truncated")
	errBadVarint = errors.New("trace: event body has a malformed varint")
)

// bodyReader consumes a body front to back; the first failure sticks
// and drops the rest of the body, so every later read returns zero
// values.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *bodyReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errShortBody)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uvarint reads a one-byte varint, every length and most counts of a
// typical body, without the general loop.
func (r *bodyReader) uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 {
		r.b = b[1:]
		return uint64(b[0])
	}
	return r.uvarintSlow()
}

func (r *bodyReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errShortBody)
		return 0
	case n < 0:
		r.fail(errBadVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// bytes returns the next length-prefixed field, aliasing the body.
func (r *bodyReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(errShortBody)
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// str copies the next string out of the body (high-cardinality fields).
func (r *bodyReader) str() string { return string(r.bytes()) }

// endpoint reads what appendEndpoint wrote: the address is a
// length-prefixed field like any other, of no, 4 or 16 bytes.
func (r *bodyReader) endpoint() netip.AddrPort {
	a := r.bytes()
	ip, ok := netip.AddrFromSlice(a)
	if !ok && len(a) != 0 {
		r.fail(fmt.Errorf("trace: endpoint address of %d bytes", len(a)))
	}
	port := r.uvarint()
	if port > math.MaxUint16 {
		r.fail(fmt.Errorf("trace: endpoint port %d", port))
	}
	return netip.AddrPortFrom(ip, uint16(port))
}

// interned returns the next string through the stream's intern table.
func (d *Decoder) interned(r *bodyReader) string { return d.intern.Intern(r.bytes()) }

// Interner is a bounded string table for one stream of low-cardinality
// strings (API methods and paths, nodes): Intern returns the
// same string for equal bytes without allocating, and once the table is
// full it stops filling — it never evicts, so a string handed out stays
// valid. A repeat is answered from a direct-mapped front table keyed on
// the length and sampled bytes and confirmed by comparing the bytes,
// without hashing them all; the map behind it holds every interned
// string, so two that share a slot both stay interned. The zero value is
// ready to use; an Interner is not safe for concurrent use.
type Interner struct {
	front *[1 << internSlotBits]string
	m     map[string]string
}

// internSlotBits sizes the front table at 1024 slots (16 KiB), about
// three per distinct string of a deployment's stream, allocated with
// the map on the first string kept.
const internSlotBits = 10

// slot picks b's front-table slot from its length and its middle and
// last eight bytes (first, middle and last byte when shorter).
func (t *Interner) slot(b []byte) *string {
	n := len(b)
	h := uint64(n)
	if n >= 8 {
		h ^= binary.LittleEndian.Uint64(b[n/2-4:]) ^ binary.LittleEndian.Uint64(b[n-8:])<<1
	} else {
		h ^= uint64(b[0])<<8 | uint64(b[n/2])<<16 | uint64(b[n-1])<<24
	}
	return &t.front[h*0x9E3779B97F4A7C15>>(64-internSlotBits)]
}

// Intern returns b as a string that shares no memory with b.
func (t *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t.front != nil {
		if f := t.slot(b); *f == string(b) { // no allocation: a comparison
			return *f
		}
	}
	if s, ok := t.m[string(b)]; ok { // no allocation: map lookup by converted key
		*t.slot(b) = s
		return s
	}
	s := string(b)
	if len(t.m) < internMax && len(s) <= internMaxLen {
		if t.m == nil {
			t.m = make(map[string]string)
			t.front = new([1 << internSlotBits]string)
		}
		t.m[s] = s
		*t.slot(b) = s
	}
	return s
}

func (d *Decoder) decodeBinary(body []byte, ev *Event) error {
	r := bodyReader{b: body}
	if v := r.byte(); r.err == nil && v != bodyVersion {
		return fmt.Errorf("trace: unknown event body version %d", v)
	}
	ev.Seq = r.uvarint()
	sec, nsec, offset := r.varint(), r.uvarint(), r.varint()
	ev.Type = EventType(r.byte())
	ev.API.Service = Service(r.byte())
	ev.API.Kind = Kind(r.byte())
	ev.API.Method = d.interned(&r)
	ev.API.Path = d.interned(&r)
	ev.SrcNode = d.interned(&r)
	ev.DstNode = d.interned(&r)
	ev.SrcAddr = r.endpoint()
	ev.DstAddr = r.endpoint()
	ev.ConnID = r.uvarint()
	ev.MsgID = r.str()
	ev.CorrID = r.str()
	ev.Status = int(r.varint())
	ev.ErrorText = d.interned(&r)
	ev.WireBytes = int(r.varint())
	ev.OpID = r.uvarint()
	ev.OpName = d.interned(&r)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("trace: %d trailing bytes after event body", len(r.b))
	}
	if nsec > 999999999 {
		return fmt.Errorf("trace: event time has %d nanoseconds", nsec)
	}
	// The same Time the JSON body's RFC 3339 round trip yields: UTC for
	// a zero offset, otherwise a fixed zone of that offset; no
	// monotonic reading.
	ev.Time = time.Unix(sec, int64(nsec))
	if offset == 0 {
		ev.Time = ev.Time.UTC()
	} else {
		ev.Time = ev.Time.In(d.fixedZone(int(offset)))
	}
	return nil
}

func (d *Decoder) fixedZone(offset int) *time.Location {
	if d.zone == nil || d.zoneOffset != offset {
		d.zone, d.zoneOffset = time.FixedZone("", offset), offset
	}
	return d.zone
}
