package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func codecSample() Event {
	return Event{
		Seq:     12345,
		Time:    time.Date(2016, 12, 12, 9, 30, 0, 123456789, time.UTC),
		Type:    RESTResponse,
		API:     RESTAPI(SvcGlance, "PUT", "/v2/images/{id}/file"),
		SrcNode: "glance-node", DstNode: "horizon-node",
		SrcAddr: netip.MustParseAddrPort("10.0.0.2:9292"), DstAddr: netip.MustParseAddrPort("10.0.0.7:41234"),
		ConnID: 42, MsgID: "9f3c1e", CorrID: "req-4b1d",
		Status: 413, ErrorText: "Request Entity Too Large",
		WireBytes: 211, OpID: 7, OpName: "image-upload",
	}
}

// jsonRoundTrip is the oracle: what an encoding/json round trip — the
// event body before the binary one — makes of ev.
func jsonRoundTrip(t testing.TB, ev Event) Event {
	t.Helper()
	body, err := json.Marshal(&ev)
	if err != nil {
		t.Fatalf("oracle: marshal: %v", err)
	}
	var out Event
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("oracle: unmarshal: %v", err)
	}
	return out
}

// requireSame compares two decoded events field for field: times as the
// same instant rendering identically (so the same zone offset), the
// rest by value.
func requireSame(t testing.TB, got, want Event) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.Time.Format(time.RFC3339Nano) != want.Time.Format(time.RFC3339Nano) {
		t.Fatalf("time: got %s, want %s", got.Time.Format(time.RFC3339Nano), want.Time.Format(time.RFC3339Nano))
	}
	got.Time, want.Time = time.Time{}, time.Time{}
	if got != want {
		t.Fatalf("got  %+v\nwant %+v", got, want)
	}
}

func binaryRoundTrip(t testing.TB, ev Event) Event {
	t.Helper()
	var (
		dec Decoder
		out Event
	)
	if err := dec.Decode(BodyBinary, AppendEvent(nil, &ev), &out); err != nil {
		t.Fatalf("decode(encode(ev)): %v", err)
	}
	return out
}

func TestEventCodecMatchesJSONRoundTrip(t *testing.T) {
	negative := codecSample()
	negative.Status, negative.WireBytes = -3, -1
	negative.Time = time.Date(1965, 3, 1, 23, 59, 59, 999999999, time.FixedZone("EST", -5*3600))
	east := codecSample()
	east.Time = east.Time.In(time.FixedZone("", 5*3600+30*60))
	mono := codecSample()
	mono.Time = time.Now() // carries a monotonic reading and the Local zone
	wide := codecSample()
	wide.Seq, wide.ConnID, wide.OpID = 1<<64-1, 1<<63, 1<<64-1
	wide.Type, wide.API.Service, wide.API.Kind = 255, 255, 255
	wide.ErrorText = strings.Repeat("é\x00\"<>&\n", 40)
	v6 := codecSample()
	v6.SrcAddr, v6.DstAddr = netip.MustParseAddrPort("[fd00::5]:3306"), netip.MustParseAddrPort("[::ffff:10.0.0.7]:0")
	for name, ev := range map[string]Event{
		"zero": {}, "sample": codecSample(), "negative": negative,
		"east": east, "monotonic": mono, "wide": wide, "ipv6": v6,
	} {
		t.Run(name, func(t *testing.T) {
			got := binaryRoundTrip(t, ev)
			requireSame(t, got, jsonRoundTrip(t, ev))
			if ev.Time.Location() == time.UTC && got.Time != ev.Time.Round(0) {
				t.Fatalf("UTC time did not round-trip to the identical value: %#v vs %#v", got.Time, ev.Time)
			}
		})
	}
}

func TestDecodeRejectsMalformedBodies(t *testing.T) {
	ev := codecSample()
	good := AppendEvent(nil, &ev)
	var dec Decoder
	var out Event
	for i := 0; i < len(good); i++ {
		if err := dec.Decode(BodyBinary, good[:i], &out); err == nil {
			t.Fatalf("accepted a body truncated to %d of %d bytes", i, len(good))
		}
	}
	cases := map[string][]byte{
		"trailing":     append(append([]byte{}, good...), 0),
		"version":      append([]byte{bodyVersion + 1}, good[1:]...),
		"huge-length":  {bodyVersion, 0, 0, 0, 0, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"long-varint":  append([]byte{bodyVersion}, overlongVarint()...),
		"nanos":        nanosBody(),
		"unknown-kind": good,
		"v1-body":      append([]byte{1}, good[1:]...),
		"port":         withPort(good, ev, 1<<16),
	}
	for n := 0; n < 256; n++ { // an endpoint is 0, 4 or 16 address bytes
		if n != 0 && n != 4 && n != 16 {
			cases[fmt.Sprintf("endpoint-length-%d", n)] = withEndpointLength(good, ev, byte(n))
		}
	}
	for name, body := range cases {
		kind := BodyBinary
		if name == "unknown-kind" {
			kind = 'E' // the JSON body's old kind: refused like any other
		}
		err := dec.Decode(kind, body, &out)
		if err == nil {
			t.Errorf("%s: malformed body accepted", name)
		} else if want := map[string]string{"nanos": "nanoseconds", "v1-body": "version", "port": "port"}[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: rejected for the wrong reason: %v", name, err)
		}
	}
}

// endpointAt is the offset of SrcAddr's length byte in ev's body: the
// first byte that changes when only SrcAddr's address family does.
func endpointAt(body []byte, ev Event) int {
	family := netip.IPv6Unspecified()
	if !ev.SrcAddr.Addr().Is4() {
		family = netip.AddrFrom4([4]byte{})
	}
	ev.SrcAddr = netip.AddrPortFrom(family, ev.SrcAddr.Port())
	other := AppendEvent(nil, &ev)
	for i := range body {
		if body[i] != other[i] {
			return i
		}
	}
	panic("SrcAddr does not show in the body")
}

// withEndpointLength is body with SrcAddr's length byte overwritten.
func withEndpointLength(body []byte, ev Event, n byte) []byte {
	out := append([]byte{}, body...)
	out[endpointAt(body, ev)] = n
	return out
}

// withPort is body with SrcAddr's port re-encoded as port, which need
// not fit sixteen bits. ev.SrcAddr must be IPv4.
func withPort(body []byte, ev Event, port uint64) []byte {
	at := endpointAt(body, ev) + 1 + 4
	_, n := binary.Uvarint(body[at:])
	return append(binary.AppendUvarint(append([]byte{}, body[:at]...), port), body[at+n:]...)
}

// overlongVarint is an eleven-byte varint: one byte past what fits 64 bits.
func overlongVarint() []byte { return append([]byte(strings.Repeat("\x80", 10)), 0x02) }

// nanosBody is a well-formed body but for 1e9 nanoseconds.
func nanosBody() []byte {
	b := []byte{bodyVersion, 0, 0}
	b = append(b, 0x80, 0x94, 0xeb, 0xdc, 0x03) // uvarint 1_000_000_000
	b = append(b, 0)                            // zone offset
	b = append(b, 0, 0, 0)                      // type, service, kind
	return append(b, make([]byte, 16)...)       // every remaining field zero/empty
}

// TestDecoderInternBound: a stream with more distinct strings than the
// intern bound still decodes every event correctly, and the table stops
// growing at the bound; repeating strings are shared, long ones are not
// kept.
func TestDecoderInternBound(t *testing.T) {
	var dec Decoder
	ev := codecSample()
	ev.ErrorText = strings.Repeat("x", internMaxLen+1)
	var first Event
	for i := 0; i < internMax+500; i++ {
		ev.SrcNode = fmt.Sprintf("node-%d", i)
		var out Event
		if err := dec.Decode(BodyBinary, AppendEvent(nil, &ev), &out); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		requireSame(t, out, ev)
		if len(dec.intern.m) > internMax {
			t.Fatalf("intern table grew to %d entries after %d events, bound is %d", len(dec.intern.m), i+1, internMax)
		}
		if i == 0 {
			first = out
		} else if unsafe.StringData(out.API.Path) != unsafe.StringData(first.API.Path) {
			t.Fatalf("event %d: repeating API.Path was not interned", i)
		}
	}
	if len(dec.intern.m) != internMax {
		t.Fatalf("intern table holds %d entries, want it full at %d", len(dec.intern.m), internMax)
	}
	if _, kept := dec.intern.m[ev.ErrorText]; kept {
		t.Fatalf("a %d-byte string was interned past the %d-byte bound", len(ev.ErrorText), internMaxLen)
	}
}

// TestInternerFrontTable: a repeat answered by the front table is the
// interned copy, never the caller's bytes, and the table holds it; two strings that share a
// front slot both stay interned and repeat without allocating; and a
// string the bounds keep out is copied on every sighting.
func TestInternerFrontTable(t *testing.T) {
	var in Interner
	in.Intern([]byte("seed")) // allocates the tables
	buf := []byte("compute-1")
	first := in.Intern(buf)
	again := in.Intern(buf)
	if unsafe.StringData(again) != unsafe.StringData(first) || unsafe.StringData(again) == &buf[0] {
		t.Fatal("a repeat did not return the interned copy")
	}
	if f := in.slot(buf); unsafe.StringData(*f) != unsafe.StringData(first) {
		t.Fatalf("the front table holds %q, not the interned string", *f)
	}
	buf[0] = 'X'
	if first != "compute-1" || again != "compute-1" {
		t.Fatalf("interned strings changed with the caller's bytes: %q %q", first, again)
	}

	// Two strings of one length sharing a slot.
	a := []byte("n-000000")
	var b []byte
	for i := 1; b == nil; i++ {
		if c := []byte(fmt.Sprintf("n-%06d", i)); in.slot(c) == in.slot(a) {
			b = c
		}
	}
	sa, sb := in.Intern(a), in.Intern(b)
	for i := 0; i < 3; i++ {
		if x, y := in.Intern(a), in.Intern(b); unsafe.StringData(x) != unsafe.StringData(sa) || unsafe.StringData(y) != unsafe.StringData(sb) {
			t.Fatalf("round %d: colliding %q and %q were not both interned", i, a, b)
		}
	}
	if n := testing.AllocsPerRun(100, func() { in.Intern(a); in.Intern(b) }); n != 0 {
		t.Fatalf("repeating two colliding strings: %.1f allocs, want 0", n)
	}

	long := []byte(strings.Repeat("y", internMaxLen+1))
	if x, y := in.Intern(long), in.Intern(long); unsafe.StringData(x) == unsafe.StringData(y) {
		t.Fatalf("a %d-byte string was interned past the %d-byte bound", len(long), internMaxLen)
	}
}

// TestCodecAllocations pins the point of the codec on the traffic the
// taps actually produce — every event from a fresh ephemeral source
// port, more of them than any table could hold: encoding into a sized
// buffer allocates nothing, and decoding allocates only the event's two
// identifiers, nothing at all when it has none.
func TestCodecAllocations(t *testing.T) {
	ev := codecSample()
	buf := make([]byte, 0, EventSizeHint(&ev))
	if n := testing.AllocsPerRun(100, func() { buf = AppendEvent(buf[:0], &ev) }); n != 0 {
		t.Errorf("AppendEvent into a sized buffer: %.1f allocs, want 0", n)
	}
	if len(buf) > EventSizeHint(&ev) {
		t.Errorf("EventSizeHint %d is under the %d-byte body of a typical event", EventSizeHint(&ev), len(buf))
	}
	const events = 4 * internMax
	for _, tc := range []struct {
		name string
		ids  bool
		max  float64
	}{{"ids", true, 2}, {"no-ids", false, 0}} {
		bodies := make([][]byte, events)
		for i := range bodies {
			ev.SrcAddr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 14), byte(i >> 6)}), uint16(32768+i))
			ev.MsgID, ev.CorrID = "", ""
			if tc.ids {
				ev.MsgID, ev.CorrID = fmt.Sprintf("msg-%d", i), fmt.Sprintf("req-%d", i)
			}
			bodies[i] = AppendEvent(nil, &ev)
		}
		var (
			dec Decoder
			out Event
			i   int
		)
		// One pass fills the intern table with the stream's repeating strings.
		if err := dec.Decode(BodyBinary, bodies[0], &out); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(events-2, func() {
			i++
			if err := dec.Decode(BodyBinary, bodies[i], &out); err != nil {
				t.Fatal(err)
			}
		}); n > tc.max {
			t.Errorf("%s: Decode of a distinct-endpoint stream: %.1f allocs/event, want <= %.0f", tc.name, n, tc.max)
		}
		if out.SrcAddr != ev.SrcAddr {
			t.Errorf("%s: last event decoded SrcAddr %v, want %v", tc.name, out.SrcAddr, ev.SrcAddr)
		}
	}
}

// FuzzEventCodec holds the codec to its two contracts. Arbitrary bytes
// never panic the decoder and never make it allocate more string data
// than the body holds; whatever it accepts re-encodes to a body that
// decodes to the same event. And for fuzzed field values — the
// endpoints among them: IPv4, IPv6, 4-in-6, none, port 0, and a zoned
// address, which comes back without its zone — decode(encode(ev))
// equals the JSON round trip of ev, field for field. A body whose
// endpoint length byte is not 0, 4 or 16 is refused. Decoding over an
// Event that holds another event equals decoding into a zero one.
func FuzzEventCodec(f *testing.F) {
	ev := codecSample()
	good := AppendEvent(nil, &ev)
	add := func(raw []byte) {
		f.Add(raw, ev.Seq, ev.Time.Unix(), uint32(ev.Time.Nanosecond()), int16(0),
			uint8(ev.Type), uint8(ev.API.Service), uint8(ev.API.Kind),
			ev.API.Method, ev.API.Path, ev.SrcNode, ev.SrcAddr.String(), ev.MsgID, ev.ErrorText,
			ev.ConnID, int64(ev.Status), int64(ev.WireBytes), []byte{10, 0, 0, 7}, uint16(41234), uint8(4))
	}
	add(good)
	add(good[:len(good)/2])
	add(append(append([]byte{}, good...), 0xff))
	add([]byte{})
	add([]byte{bodyVersion, 0, 0, 0, 0, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	add(overlongVarint())
	f.Add([]byte{bodyVersion}, uint64(1<<64-1), int64(-1), uint32(999999999), int16(-330),
		uint8(255), uint8(0), uint8(7), "", "é\x00\"", "\xff\xfe", "::1", "\n", strings.Repeat("e", 300),
		uint64(1<<63), int64(-1<<63), int64(1<<62), []byte{}, uint16(0), uint8(0))
	for i, ep := range []struct {
		addr string
		ip   []byte
	}{
		{"[fe80::1%eth0]:8774", netip.MustParseAddr("fd00::5").AsSlice()},
		{"[::ffff:10.0.0.7]:0", netip.MustParseAddr("::ffff:10.0.0.2").AsSlice()},
		{"10.0.0.2:65535", []byte{1, 2, 3}},
		{"", nil},
	} {
		f.Add(withEndpointLength(good, ev, []byte{1, 3, 5, 17}[i]), ev.Seq, int64(0), uint32(0), int16(0),
			uint8(1), uint8(1), uint8(1), "", "", "", ep.addr, "", "",
			uint64(0), int64(0), int64(0), ep.ip, uint16(i), []byte{2, 15, 16, 255}[i])
	}

	f.Fuzz(func(t *testing.T, raw []byte, seq uint64, sec int64, nsec uint32, zoneMin int16,
		typ, svc, kind uint8, method, path, node, addr, msgID, errText string,
		connID uint64, status, wire int64, ip []byte, port uint16, epLen uint8) {
		var dec Decoder
		var out Event
		if err := dec.Decode(BodyBinary, raw, &out); err == nil {
			strs := len(out.API.Method) + len(out.API.Path) + len(out.SrcNode) + len(out.DstNode) +
				len(out.MsgID) + len(out.CorrID) + len(out.ErrorText) + len(out.OpName)
			if strs > len(raw) {
				t.Fatalf("decoded %d bytes of strings from a %d-byte body", strs, len(raw))
			}
			requireSame(t, binaryRoundTrip(t, out), out)
		}

		// Field values the JSON body can carry: years 1..9998 (RFC 3339
		// has four year digits), whole-minute zone offsets under a day,
		// valid UTF-8 (encoding/json replaces anything else). The source
		// endpoint is whatever addr parses to, zone and all; the
		// destination is built from raw address bytes.
		const minSec, maxSec = -62135596800, 253370764800
		sec = minSec + int64(uint64(sec)%uint64(maxSec-minSec))
		zone := time.UTC
		if off := int(zoneMin) % (24 * 60) * 60; off != 0 {
			zone = time.FixedZone("", off)
		}
		clean := func(s string) string { return strings.ToValidUTF8(s, "?") }
		src, _ := netip.ParseAddrPort(addr)
		var dst netip.AddrPort
		if a, ok := netip.AddrFromSlice(ip); ok {
			dst = netip.AddrPortFrom(a, port)
		}
		ev := Event{
			Seq: seq, Time: time.Unix(sec, int64(nsec%1e9)).In(zone),
			Type: EventType(typ), API: API{Service: Service(svc), Kind: Kind(kind), Method: clean(method), Path: clean(path)},
			SrcNode: clean(node), DstNode: clean(path), SrcAddr: src, DstAddr: dst,
			ConnID: connID, MsgID: clean(msgID), CorrID: clean(addr),
			Status: int(status), ErrorText: clean(errText), WireBytes: int(wire),
			OpID: connID ^ seq, OpName: clean(method),
		}
		got, want := binaryRoundTrip(t, ev), jsonRoundTrip(t, ev)
		if got.SrcAddr.Addr().Zone() != "" {
			t.Fatalf("SrcAddr %v came back with its zone", got.SrcAddr)
		}
		want.SrcAddr = netip.AddrPortFrom(want.SrcAddr.Addr().WithZone(""), want.SrcAddr.Port())
		requireSame(t, got, want)
		if src.Addr().Zone() == "" {
			requireSame(t, got, ev)
		}

		// A decode overwrites every field, so a batch slot can be reused:
		// ev's body decoded over a slot still holding another event — a
		// full one, or the unspecified leftovers of raw's decode — equals
		// it decoded into a zero Event.
		var fresh Event
		if err := dec.Decode(BodyBinary, AppendEvent(nil, &ev), &fresh); err != nil {
			t.Fatalf("decode(encode(ev)): %v", err)
		}
		held := codecSample()
		held.Time = held.Time.In(time.FixedZone("", -7*3600))
		for _, slot := range []Event{held, out} {
			if err := dec.Decode(BodyBinary, AppendEvent(nil, &ev), &slot); err != nil || slot != fresh {
				t.Fatalf("decoded over a used slot: %+v (err %v)\nover a zero one: %+v", slot, err, fresh)
			}
		}

		body := withEndpointLength(AppendEvent(nil, &ev), ev, epLen)
		if err := dec.Decode(BodyBinary, body, &out); err == nil && epLen != 0 && epLen != 4 && epLen != 16 {
			t.Fatalf("accepted an endpoint of %d address bytes", epLen)
		}
	})
}
