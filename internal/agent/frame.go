// Wire format v2: kind-tagged, length-prefixed frames hardened for a
// monitoring plane that must tolerate the faults it watches for. Every
// frame opens with a two-byte magic so a receiver that loses alignment
// can resynchronize by scanning instead of dropping the connection,
// carries a per-agent sequence number so replayed frames deduplicate and
// losses surface as explicit gap records, and closes the header with a
// CRC32 over header+body so a corrupt frame is skipped, not trusted.
//
//	offset size
//	0      2    magic 0xF5 0x9E
//	2      1    kind ('I' hello, 'B' event, 'S' state, 'H' heartbeat,
//	            'E' legacy JSON event)
//	3      8    sequence number, big-endian (0 = unsequenced)
//	11     4    body length, big-endian
//	15     4    CRC32 (IEEE) over bytes [2,15) and the body
//	19     n    body
//
// Event bodies — the per-event traffic — are trace's binary encoding
// (trace.BodyBinary, laid out in internal/trace/codec.go) under kind
// 'B'. Kind 'E' carries the same event as JSON: senders before the
// binary body wrote it and receivers still read it, so an analyzer can
// be upgraded ahead of its agents. Hello, heartbeat and state bodies are
// per-connection or per-period, not per-event, and stay JSON.

package agent

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"gretel/internal/trace"
)

// MaxFrame bounds a single encoded frame (defense against corrupt
// length prefixes).
const MaxFrame = 1 << 22

const (
	frameMagic0 = 0xF5
	frameMagic1 = 0x9E
	frameHdrLen = 19
)

// Frame kinds on the wire.
const (
	frameHello     byte = 'I' // per-connection agent identification
	frameEvent          = trace.BodyBinary
	frameEventJSON      = trace.BodyJSON // legacy: read, never written
	frameState     byte = 'S'
	frameHeartbeat byte = 'H' // liveness + sequence high-water mark
)

func validKind(k byte) bool {
	switch k {
	case frameHello, frameEvent, frameEventJSON, frameState, frameHeartbeat:
		return true
	}
	return false
}

// helloBody identifies the sending agent on a fresh connection, keying
// the receiver's sequence tracking across reconnects. Session names one
// sender incarnation: it changes when the agent process restarts, so a
// receiver can tell "same stream, reconnected" (missing sequence numbers
// are losses) from "new stream" (an agent restart, or an agent redialing
// a replacement analyzer that never saw the old history — in neither
// case did this receiver lose anything). Base is the sequence number
// immediately before the first frame this connection can replay; frames
// at or below it are unrecoverable on this session and are the
// receiver's starting point, not a gap. Zero values keep the legacy
// (session-less) behavior for old senders.
type helloBody struct {
	Agent   string `json:"agent"`
	Session uint64 `json:"session,omitempty"`
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

// sealFrame completes a frame in place: fr holds frameHdrLen reserved
// bytes and then the body, and gets its header and CRC written.
func sealFrame(fr []byte, kind byte, seq uint64) {
	fr[0] = frameMagic0
	fr[1] = frameMagic1
	fr[2] = kind
	binary.BigEndian.PutUint64(fr[3:], seq)
	binary.BigEndian.PutUint32(fr[11:], uint32(len(fr)-frameHdrLen))
	crc := crc32.ChecksumIEEE(fr[2:15])
	crc = crc32.Update(crc, crc32.IEEETable, fr[frameHdrLen:])
	binary.BigEndian.PutUint32(fr[15:], crc)
}

// encodeFrame builds one complete wire frame around a copy of body.
func encodeFrame(kind byte, seq uint64, body []byte) []byte {
	fr := make([]byte, frameHdrLen+len(body))
	copy(fr[frameHdrLen:], body)
	sealFrame(fr, kind, seq)
	return fr
}

// eventFrame encodes ev's binary body after a reserved header, in the
// one buffer the frame will live in; sealFrame finishes it once the
// sequence number is known.
func eventFrame(ev *trace.Event) []byte {
	fr := make([]byte, frameHdrLen, frameHdrLen+trace.EventSizeHint(ev))
	return trace.AppendEvent(fr, ev)
}

// readFrame reads the next valid frame, resynchronizing on corruption:
// a bad magic, unknown kind, or implausible length advances the scan by
// one byte; a CRC mismatch skips the frame. skipped reports the bytes
// discarded before the returned frame (0 on a healthy stream). Errors
// are only I/O-level (EOF, deadline): corruption never surfaces as an
// error, so one mangled frame cannot tear down a connection. The body
// aliases buf (grown as needed) and is valid until the next call that
// is handed it.
func readFrame(br *bufio.Reader, buf []byte) (kind byte, seq uint64, body []byte, skipped int, err error) {
	for {
		b0, err := br.ReadByte()
		if err != nil {
			return 0, 0, nil, skipped, err
		}
		if b0 != frameMagic0 {
			skipped++
			continue
		}
		// Candidate header: peek the rest so a false positive costs one
		// byte of scan, not a consumed prefix.
		hdr, err := br.Peek(frameHdrLen - 1)
		if err != nil {
			if len(hdr) == 0 || hdr[0] != frameMagic1 {
				skipped++
				continue
			}
			return 0, 0, nil, skipped, err
		}
		if hdr[0] != frameMagic1 {
			skipped++
			continue
		}
		kind = hdr[1]
		n := binary.BigEndian.Uint32(hdr[10:14])
		if !validKind(kind) || n > MaxFrame {
			skipped++
			continue
		}
		seq = binary.BigEndian.Uint64(hdr[2:10])
		want := binary.BigEndian.Uint32(hdr[14:18])
		crc := crc32.ChecksumIEEE(hdr[1:14])
		if _, err := br.Discard(frameHdrLen - 1); err != nil {
			return 0, 0, nil, skipped, err
		}
		body = slices.Grow(buf[:0], int(n))[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, 0, nil, skipped, err
		}
		if crc32.Update(crc, crc32.IEEETable, body) != want {
			// Corrupt frame (or a false-positive magic inside corrupted
			// bytes): skip it and keep scanning. If the length field
			// itself was corrupted we are now misaligned, and the next
			// magic check resynchronizes.
			mCRCErrors.Inc()
			skipped += frameHdrLen + len(body)
			buf = body
			continue
		}
		return kind, seq, body, skipped, nil
	}
}

// WriteEvent encodes one unsequenced event frame (test and
// single-purpose producers; the Sender assigns sequence numbers).
func WriteEvent(w io.Writer, ev *trace.Event) error {
	fr := eventFrame(ev)
	sealFrame(fr, frameEvent, 0)
	_, err := w.Write(fr)
	return err
}

// WriteState encodes one unsequenced state-update frame.
func WriteState(w io.Writer, u *StateUpdate) error {
	body, err := json.Marshal(u)
	if err != nil {
		return fmt.Errorf("agent: encoding frame: %w", err)
	}
	_, err = w.Write(encodeFrame(frameState, 0, body))
	return err
}

// ReadEvent decodes one frame, which must be an event frame of either
// body kind (test and single-purpose consumers; the Receiver handles
// mixed streams).
func ReadEvent(r io.Reader) (trace.Event, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	kind, _, body, _, err := readFrame(br, nil)
	if err != nil {
		return trace.Event{}, err
	}
	if kind != frameEvent && kind != frameEventJSON {
		return trace.Event{}, fmt.Errorf("agent: expected event frame, got %q", kind)
	}
	var (
		dec trace.Decoder
		ev  trace.Event
	)
	if err := dec.Decode(kind, body, &ev); err != nil {
		return trace.Event{}, fmt.Errorf("agent: decoding event: %w", err)
	}
	return ev, nil
}
