package agent

import (
	"bytes"
	"flag"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden frame files with current encoder output")

// TestEventFrameGolden pins both event frame formats byte for byte: the
// binary frame senders write, and the legacy JSON frame that deployed
// agents and old WAL segments still hold. Format drift in either fails
// here, and each golden must still decode to the event it was made from.
func TestEventFrameGolden(t *testing.T) {
	ev := sampleEvent(9)
	ev.Time = time.Date(2016, 12, 12, 9, 30, 0, 123456789, time.FixedZone("", -5*3600))
	ev.SrcAddr, ev.DstAddr = netip.MustParseAddrPort("10.0.0.7:41234"), netip.MustParseAddrPort("10.0.0.2:9292")
	ev.MsgID, ev.CorrID = "9f3c1e", "req-4b1d"
	for _, tc := range []struct {
		file  string
		frame []byte
	}{
		{"event_frame_binary.golden", binFrame(9, ev)},
		{"event_frame_json.golden", jsonFrame(9, ev)},
	} {
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, tc.frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update-golden to create): %v", err)
		}
		if !bytes.Equal(tc.frame, want) {
			t.Errorf("%s: frame encoding drifted from the golden\n got: %x\nwant: %x", tc.file, tc.frame, want)
		}
		got, err := ReadEvent(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: ReadEvent: %v", tc.file, err)
		}
		if !sameEvent(got, ev) {
			t.Errorf("%s: decoded %+v, want %+v", tc.file, got, ev)
		}
	}
}

// TestV1EventFrameIsRefused: the version-1 body (endpoints as strings)
// is not read. Its golden frame is refused by name, and a receiver that
// meets one from an agent nobody upgraded counts it and declares its
// sequence number missing — delivered + missing == sent still closes.
func TestV1EventFrameIsRefused(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "event_frame_binary_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEvent(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unknown event body version 1") {
		t.Fatalf("ReadEvent(v1 frame) = %v, want the unknown-version error", err)
	}
	recv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	decode := telemetry.GetCounter("transport.decode_errors")
	before := decode.Value()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The golden is sequence 9; its neighbours are current frames.
	for _, fr := range [][]byte{binFrame(8, sampleEvent(8)), v1, binFrame(10, sampleEvent(10))} {
		if _, err := conn.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range []uint64{8, 10} {
		select {
		case got := <-recv.Events():
			if got != sampleEvent(seq) {
				t.Fatalf("got %+v, want event %d", got, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for event %d", seq)
		}
	}
	if got := decode.Value() - before; got != 1 {
		t.Fatalf("transport.decode_errors grew by %d, want 1", got)
	}
	// A connection without a hello starts counting at zero: 7 before the
	// first frame, and the refused one.
	for _, st := range recv.AgentStats() {
		if st.LastSeq != 10 || st.Missing != 7+1 {
			t.Fatalf("ledger = %+v, want lastSeq=10 missing=8", st)
		}
	}
}

// sameEvent compares two events field for field, the times as instants
// with the same zone offset (a decoded Location is never the encoder's
// pointer).
func sameEvent(a, b trace.Event) bool {
	if !a.Time.Equal(b.Time) || a.Time.Format(time.RFC3339Nano) != b.Time.Format(time.RFC3339Nano) {
		return false
	}
	a.Time, b.Time = time.Time{}, time.Time{}
	return a == b
}

// TestReceiverReadsLegacyJSONFrames: a not-yet-upgraded agent still
// sends JSON event frames; the receiver delivers them, and a stream that
// changes kind mid-way (an agent upgraded between reconnects) stays in
// order with its sequence ledger closed.
func TestReceiverReadsLegacyJSONFrames(t *testing.T) {
	recv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 6
	for seq := uint64(1); seq <= n; seq++ {
		fr := jsonFrame(seq, sampleEvent(seq))
		if seq > n/2 {
			fr = binFrame(seq, sampleEvent(seq))
		}
		if _, err := conn.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= n; seq++ {
		select {
		case got := <-recv.Events():
			if want := sampleEvent(seq); got != want {
				t.Fatalf("event %d: got %+v, want %+v", seq, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for event %d", seq)
		}
	}
	for _, st := range recv.AgentStats() {
		if st.LastSeq != n || st.Missing != 0 || st.Dups != 0 {
			t.Fatalf("ledger = %+v, want lastSeq=%d missing=0 dups=0", st, n)
		}
	}
}
