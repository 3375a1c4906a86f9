// Wire frames: internal/seglog's envelope (magic, kind, sequence number,
// length, CRC — laid out there) hardened for a monitoring plane that must
// tolerate the faults it watches for. The magic lets a receiver that
// loses alignment resynchronize by scanning instead of dropping the
// connection, the per-agent sequence number lets replayed frames
// deduplicate and losses surface as explicit gap records, and a corrupt
// frame is skipped, not trusted. This file owns what goes in the
// envelope: the kinds ('I' hello, 'B' event, 'S' state, 'H' heartbeat;
// sequence 0 = unsequenced) and their bodies.
//
// Event bodies — the per-event traffic — are trace's binary encoding
// (trace.BodyBinary, laid out in internal/trace/codec.go) under kind
// 'B'. Hello, heartbeat and state bodies are per-connection or
// per-period, not per-event, and are JSON.

package agent

import (
	"gretel/internal/seglog"
	"gretel/internal/trace"
)

// MaxFrame bounds a single frame body (defense against corrupt length
// prefixes).
const MaxFrame = seglog.MaxRecord

const frameHdrLen = seglog.HdrLen

// Frame kinds on the wire.
const (
	frameHello     byte = 'I' // per-connection agent identification
	frameEvent          = trace.BodyBinary
	frameState     byte = 'S'
	frameHeartbeat byte = 'H' // liveness + sequence high-water mark

	// frameKinds is what a receiver accepts; any other kind byte — the
	// 'E' of the JSON event body senders once wrote included — is
	// corruption to resynchronize past.
	frameKinds = string(frameHello) + string(frameEvent) + string(frameState) + string(frameHeartbeat)
)

// helloBody identifies the sending agent on a fresh connection, keying
// the receiver's sequence tracking across reconnects. Session names one
// sender incarnation: it changes when the agent process restarts, so a
// receiver can tell "same stream, reconnected" (missing sequence numbers
// are losses) from "new stream" (an agent restart, or an agent redialing
// a restarted analyzer whose receiver kept no state — in neither case
// did this receiver lose anything). Base is the sequence number
// immediately before the first frame this connection can replay; frames
// at or below it are unrecoverable on this session and are the
// receiver's starting point, not a gap. A Sender always sends a
// session; the receiver refuses a hello without one.
type helloBody struct {
	Agent   string `json:"agent"`
	Session uint64 `json:"session"`
	Base    uint64 `json:"base,omitempty"`
}

// heartbeatBody rides in liveness frames. The frame's sequence number is
// the sender's high-water mark: every payload frame at or below it has
// already been written ahead of the heartbeat on this connection, so a
// receiver behind that mark has a proven gap.
type heartbeatBody struct {
	Agent string `json:"agent"`
	Shed  uint64 `json:"shed,omitempty"`
}

// appendEventFrame appends ev as one sealed event frame: the binary body
// is encoded in place after the header, in whatever buffer dst is.
func appendEventFrame(dst []byte, ev *trace.Event, seq uint64) []byte {
	start := len(dst)
	dst = trace.AppendEvent(seglog.Reserve(dst), ev)
	seglog.Seal(dst[start:], frameEvent, seq)
	return dst
}
