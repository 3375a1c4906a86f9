package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"gretel/internal/seglog"
	"net/netip"
	"strings"
	"testing"
)

// FuzzEndpoint holds the hand-written IPv4 endpoint parser to
// netip.ParseAddrPort: on any string it either defers or returns
// exactly what netip does, and it never defers on a canonical
// "a.b.c.d:port", the shape every tapped packet carries. The memoized
// lookup the Monitor runs answers as netip does, zone stripped, asked
// twice.
func FuzzEndpoint(f *testing.F) {
	for _, s := range []string{
		"10.0.0.2:9292", "0.0.0.0:0", "255.255.255.255:65535", "1.2.3.4:65536", "1.2.3.4:00080",
		"01.2.3.4:1", "1.2.3:4", "1.2.3.4.5:6", "256.1.1.1:1", "1.2.3.4:", ":1", "1..2.3:4", "1.2.3.4::5",
		"1.2.3.4%eth0:1", "[::ffff:1.2.3.4]:1", "[fe80::1%eth0]:8774", "[1.2.3.4]:1", "", "a:1", "1.2.3.4:+1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := netip.ParseAddrPort(s)
		if got, ok := parseIPv4Port(s); ok && (err != nil || got != want) {
			t.Fatalf("parseIPv4Port(%q) = %v; netip: %v, %v", s, got, want, err)
		} else if !ok && err == nil && want.Addr().Is4() && want.String() == s {
			t.Fatalf("parseIPv4Port deferred on the canonical %q", s)
		}
		want = netip.AddrPortFrom(want.Addr().WithZone(""), want.Port())
		var eps endpoints
		for i := 0; i < 2; i++ {
			if got := eps.parse(s); got != want {
				t.Fatalf("endpoints.parse(%q) = %v, netip %v", s, got, want)
			}
		}
	})
}

// FuzzReadFrame throws arbitrary byte streams at the frame reader. The
// invariants under fuzzing: never panic, never return an invalid kind
// or an oversized body, never claim to have consumed more bytes than
// exist, and always terminate (corruption must surface as resync or
// EOF, not a hang or a connection-fatal parse error).
func FuzzReadFrame(f *testing.F) {
	ev := sampleEvent(7)
	evBody, _ := json.Marshal(&ev)
	good := jsonFrame(7, ev) // the legacy event frame
	goodBin := binFrame(7, ev)
	state, _ := json.Marshal(&StateUpdate{Nodes: []NodeState{{Name: "n1", Up: true}}})
	goodState := seglog.AppendRecord(nil, frameState, 8, state)
	hb, _ := json.Marshal(heartbeatBody{Agent: "fuzz", Shed: 3})

	// Seed corpus: real frames, then each documented corruption class.
	f.Add(good)
	f.Add(goodState)
	f.Add(seglog.AppendRecord(nil, frameHeartbeat, 99, hb))
	f.Add(append(append([]byte{}, good...), goodState...)) // back-to-back
	f.Add(append([]byte{0x00, 0xF5, 0x13}, good...))       // garbage prefix

	badKind := append([]byte{}, good...)
	badKind[2] = 'X'
	f.Add(badKind)

	oversized := append([]byte{}, good...)
	binary.BigEndian.PutUint32(oversized[11:], MaxFrame+1)
	f.Add(oversized)

	truncLen := append([]byte{}, good...)
	binary.BigEndian.PutUint32(truncLen[11:], uint32(len(evBody)+100))
	f.Add(truncLen)
	f.Add(good[:frameHdrLen-3]) // truncated header

	badCRC := append([]byte{}, good...)
	badCRC[len(badCRC)-1] ^= 0xff // flip a body byte: CRC mismatch
	f.Add(append(badCRC, good...))

	// The same classes on the binary event frame senders write now.
	f.Add(goodBin)
	f.Add(append(append([]byte{}, goodBin...), good...)) // mixed-version stream
	f.Add(goodBin[:len(goodBin)-5])                      // truncated body
	badCRCBin := append([]byte{}, goodBin...)
	badCRCBin[frameHdrLen+3] ^= 0x40
	f.Add(append(badCRCBin, goodBin...))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		var buf []byte // reused across frames, as the receiver does
		for {
			kind, _, body, skipped, err := readFrame(br, buf)
			buf = body
			if err != nil {
				// Only I/O-level errors may surface; corruption must not.
				consumed += skipped
				if consumed > len(data) {
					t.Fatalf("claimed %d bytes skipped of %d input", consumed, len(data))
				}
				return
			}
			if strings.IndexByte(frameKinds, kind) < 0 {
				t.Fatalf("returned invalid kind %q", kind)
			}
			if len(body) > MaxFrame {
				t.Fatalf("returned %d-byte body beyond MaxFrame", len(body))
			}
			consumed += skipped + frameHdrLen + len(body)
			if consumed > len(data) {
				t.Fatalf("consumed %d bytes of %d input", consumed, len(data))
			}
		}
	})
}

// FuzzReadFrameRecovery embeds one valid frame after fuzzed garbage and
// asserts the reader always recovers it — the resync guarantee.
func FuzzReadFrameRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xF5})            // lone magic0
	f.Add([]byte{0xF5, 0x9E})      // magic pair, no header
	f.Add([]byte{0xF5, 0x9E, 'E'}) // looks like a frame start
	f.Add([]byte{'X', 0, 0, 0, 1}) // old-format garbage
	f.Add(bytes.Repeat([]byte{0xF5}, 40))
	f.Add([]byte{0xF5, 0x9E, 'B'}) // a binary event frame start
	torn := binFrame(41, sampleEvent(41))
	f.Add(torn[:frameHdrLen+4]) // a binary event frame torn mid-body

	good := binFrame(42, sampleEvent(42))
	body := good[frameHdrLen:]

	f.Fuzz(func(t *testing.T, garbage []byte) {
		if len(garbage) > 1<<16 {
			return
		}
		br := bufio.NewReader(bytes.NewReader(append(append([]byte{}, garbage...), good...)))
		for {
			kind, seq, got, _, err := readFrame(br, nil)
			if err != nil {
				// Permissible only if the garbage happened to embed a
				// frame prefix that swallowed our frame into its body or
				// desynced past it; but a clean EOF before any frame means
				// the good frame vanished entirely — only acceptable when
				// the garbage itself parses as frames that consumed it.
				return
			}
			if kind == frameEvent && seq == 42 && bytes.Equal(got, body) {
				return // recovered
			}
		}
	})
}
