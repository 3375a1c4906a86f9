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

// TestEventFrameGolden pins the event frame format byte for byte. Format
// drift fails here, and the golden must still decode to the event it was
// made from.
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
		got, err := readEventFrame(want)
		if err != nil {
			t.Fatalf("%s: reading the golden frame: %v", tc.file, err)
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
	if _, err := readEventFrame(v1); err == nil || !strings.Contains(err.Error(), "unknown event body version 1") {
		t.Fatalf("reading the v1 frame: %v, want the unknown-version error", err)
	}
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
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
	got := takeEvents(t, recv, 2, 5*time.Second)
	for i, seq := range []uint64{8, 10} {
		if got[i] != sampleEvent(seq) {
			t.Fatalf("got %+v, want event %d", got[i], seq)
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

// TestReceiverSkipsLegacyJSONFrame: kind 'E', the JSON event body
// senders once wrote, is an unknown kind now. A CRC-valid frame of it is
// scanned past and counted like any other bytes the receiver cannot
// read — not decoded, not a decode error — the stream resynchronises on
// the next frame, and the sequence number it carried is declared missing.
func TestReceiverSkipsLegacyJSONFrame(t *testing.T) {
	recv, err := ListenConfig(ReceiverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	skipped := telemetry.GetCounter("transport.bytes_skipped")
	decode := telemetry.GetCounter("transport.decode_errors")
	skipped0, decode0 := skipped.Value(), decode.Value()
	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	legacy := jsonFrame(2, sampleEvent(2))
	for _, fr := range [][]byte{binFrame(1, sampleEvent(1)), legacy, binFrame(3, sampleEvent(3))} {
		if _, err := conn.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	got := takeEvents(t, recv, 2, 5*time.Second)
	for i, seq := range []uint64{1, 3} {
		if want := sampleEvent(seq); got[i] != want {
			t.Fatalf("got %+v, want event %d", got[i], seq)
		}
	}
	if got := skipped.Value() - skipped0; got != uint64(len(legacy)) {
		t.Fatalf("transport.bytes_skipped += %d, want the %d bytes of the 'E' frame", got, len(legacy))
	}
	if got := decode.Value() - decode0; got != 0 {
		t.Fatalf("transport.decode_errors += %d: the 'E' body was handed to the decoder", got)
	}
	for _, st := range recv.AgentStats() {
		if st.LastSeq != 3 || st.Missing != 1 || st.Dups != 0 {
			t.Fatalf("ledger = %+v, want lastSeq=3 missing=1 dups=0", st)
		}
	}
}
