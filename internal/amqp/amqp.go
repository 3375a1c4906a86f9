// Package amqp implements a binary wire framing for broker-routed RPC
// traffic, modeled on AMQP 0-9-1 as used by RabbitMQ, carrying an
// oslo.messaging-style JSON envelope.
//
// The paper augmented Bro with a custom protocol parser for the RabbitMQ
// messaging protocol (§6). This package plays both roles: the simulator
// serializes every RPC into frames, and GRETEL's monitoring agents parse
// those frames back into events — extracting only the routing key, method
// name, message id and error marker, never the argument payload.
//
// Frame layout (following AMQP 0-9-1's general shape):
//
//	octet 0      frame type (1 method, 2 header, 3 body)
//	octets 1-2   channel (big endian)
//	octets 3-6   payload size (big endian)
//	octets 7..   payload
//	last octet   frame-end marker 0xCE
//
// A complete message is a method frame (basic.publish or basic.deliver
// with exchange + routing key), a content-header frame (body size), and a
// single body frame holding the envelope JSON.
//
// There is one parser. Scan walks the three frames and the envelope's
// top level in place and returns a View — byte slices into the scanned
// input, valid only while it is unchanged — stepping over args and
// result without decoding them (scan.go); an envelope that is not in
// the plain form every oslo sender writes is handed to encoding/json,
// whose semantics are the specification. Unmarshal copies a View into
// an owned Message for callers that keep it.
package amqp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Frame types.
const (
	FrameMethod byte = 1
	FrameHeader byte = 2
	FrameBody   byte = 3
)

// FrameEnd terminates every frame, as in AMQP 0-9-1.
const FrameEnd byte = 0xCE

// Method ids carried in method frames (class 60 "basic" in AMQP).
const (
	BasicPublish uint16 = 40
	BasicDeliver uint16 = 60
)

// Parsing errors.
var (
	ErrShort    = errors.New("amqp: truncated frame")
	ErrBadFrame = errors.New("amqp: malformed frame")
	ErrBadEnd   = errors.New("amqp: missing frame-end marker")
)

// Envelope is the oslo.messaging-style payload: the RPC method, a unique
// message id for call/reply correlation, an optional reply-to queue, and
// either args (requests) or a result/failure (replies). GRETEL's agents
// read only Method, MsgID, and Failure — Args is opaque payload.
type Envelope struct {
	MsgID   string          `json:"_msg_id,omitempty"`
	ReqID   string          `json:"_request_id,omitempty"`
	ReplyTo string          `json:"_reply_q,omitempty"`
	Method  string          `json:"method,omitempty"`
	Args    json.RawMessage `json:"args,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	// Failure carries the oslo failure class + message on errored replies,
	// e.g. "ComputeServiceUnavailable: no hosts available".
	Failure string `json:"failure,omitempty"`
}

// Message is a full broker message: routing metadata plus the envelope.
type Message struct {
	// MethodID is BasicPublish (producer→broker) or BasicDeliver
	// (broker→consumer).
	MethodID uint16
	// Exchange and RoutingKey select the destination topic, e.g.
	// exchange "nova", routing key "compute.compute-1".
	Exchange   string
	RoutingKey string
	Envelope   Envelope
}

func writeShortStr(b *bytes.Buffer, s string) {
	if len(s) > 255 {
		s = s[:255]
	}
	b.WriteByte(byte(len(s)))
	b.WriteString(s)
}

func readShortStr(p []byte) ([]byte, int, error) {
	if len(p) < 1 {
		return nil, 0, ErrShort
	}
	n := int(p[0])
	if len(p) < 1+n {
		return nil, 0, ErrShort
	}
	return p[1 : 1+n], 1 + n, nil
}

func writeFrame(b *bytes.Buffer, ftype byte, channel uint16, payload []byte) {
	b.WriteByte(ftype)
	var hdr [6]byte
	binary.BigEndian.PutUint16(hdr[0:2], channel)
	binary.BigEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	b.Write(hdr[:])
	b.Write(payload)
	b.WriteByte(FrameEnd)
}

// readFrame parses one frame from p, returning its type, channel, payload
// and total bytes consumed.
func readFrame(p []byte) (ftype byte, channel uint16, payload []byte, consumed int, err error) {
	if len(p) < 8 {
		return 0, 0, nil, 0, ErrShort
	}
	ftype = p[0]
	if ftype != FrameMethod && ftype != FrameHeader && ftype != FrameBody {
		return 0, 0, nil, 0, fmt.Errorf("%w: type %d", ErrBadFrame, ftype)
	}
	channel = binary.BigEndian.Uint16(p[1:3])
	size := int(binary.BigEndian.Uint32(p[3:7]))
	total := 7 + size + 1
	if len(p) < total {
		return 0, 0, nil, 0, ErrShort
	}
	if p[total-1] != FrameEnd {
		return 0, 0, nil, 0, ErrBadEnd
	}
	return ftype, channel, p[7 : 7+size], total, nil
}

// Marshal encodes the message as a method + content-header + body frame
// sequence on channel 1.
func Marshal(m *Message) ([]byte, error) {
	body, err := json.Marshal(&m.Envelope)
	if err != nil {
		return nil, fmt.Errorf("amqp: encoding envelope: %w", err)
	}

	var method bytes.Buffer
	var ids [4]byte
	binary.BigEndian.PutUint16(ids[0:2], 60) // class basic
	binary.BigEndian.PutUint16(ids[2:4], m.MethodID)
	method.Write(ids[:])
	writeShortStr(&method, m.Exchange)
	writeShortStr(&method, m.RoutingKey)

	var header bytes.Buffer
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(len(body)))
	header.Write(sz[:])

	var out bytes.Buffer
	writeFrame(&out, FrameMethod, 1, method.Bytes())
	writeFrame(&out, FrameHeader, 1, header.Bytes())
	writeFrame(&out, FrameBody, 1, body)
	return out.Bytes(), nil
}

// View is the header-level view of one broker message that Scan yields:
// the routing metadata, the envelope's five header fields, and the spans
// of its two opaque payloads, which are stepped over, never decoded.
// Every slice aliases the scanned bytes (or, for an envelope Scan had to
// hand to encoding/json, a decoded copy) and is valid only as long as
// they are; a caller that keeps anything copies it out.
type View struct {
	MethodID             uint16
	Exchange, RoutingKey []byte
	MsgID, ReqID         []byte
	ReplyTo, Method      []byte
	Failure              []byte
	Args, Result         []byte
}

// Scan scans one complete message (three frames) at the front of raw
// without copying it, and reports the bytes consumed, allowing
// back-to-back messages on a stream.
func Scan(raw []byte) (View, int, error) {
	ftype, _, payload, n1, err := readFrame(raw)
	if err != nil {
		return View{}, 0, err
	}
	if ftype != FrameMethod {
		return View{}, 0, fmt.Errorf("%w: expected method frame, got %d", ErrBadFrame, ftype)
	}
	if len(payload) < 4 {
		return View{}, 0, ErrBadFrame
	}
	class := binary.BigEndian.Uint16(payload[0:2])
	if class != 60 {
		return View{}, 0, fmt.Errorf("%w: class %d", ErrBadFrame, class)
	}
	v := View{MethodID: binary.BigEndian.Uint16(payload[2:4])}
	exch, en, err := readShortStr(payload[4:])
	if err != nil {
		return View{}, 0, err
	}
	rk, _, err := readShortStr(payload[4+en:])
	if err != nil {
		return View{}, 0, err
	}
	v.Exchange, v.RoutingKey = exch, rk

	ftype, _, headerPayload, n2, err := readFrame(raw[n1:])
	if err != nil {
		return View{}, 0, err
	}
	if ftype != FrameHeader || len(headerPayload) < 8 {
		return View{}, 0, fmt.Errorf("%w: expected content header", ErrBadFrame)
	}
	bodySize := binary.BigEndian.Uint64(headerPayload[:8])

	ftype, _, body, n3, err := readFrame(raw[n1+n2:])
	if err != nil {
		return View{}, 0, err
	}
	if ftype != FrameBody {
		return View{}, 0, fmt.Errorf("%w: expected body frame", ErrBadFrame)
	}
	if uint64(len(body)) != bodySize {
		return View{}, 0, fmt.Errorf("%w: header says %d body bytes, frame has %d", ErrBadFrame, bodySize, len(body))
	}
	if !scanEnvelope(body, &v) {
		// Not the plain form: encoding/json, whose semantics are the
		// envelope's specification, decides — reject or decode.
		var env Envelope
		if err := json.Unmarshal(body, &env); err != nil {
			return View{}, 0, fmt.Errorf("amqp: decoding envelope: %w", err)
		}
		v.MsgID, v.ReqID, v.ReplyTo = []byte(env.MsgID), []byte(env.ReqID), []byte(env.ReplyTo)
		v.Method, v.Failure = []byte(env.Method), []byte(env.Failure)
		v.Args, v.Result = env.Args, env.Result
	}
	return v, n1 + n2 + n3, nil
}

// Unmarshal decodes one complete message from raw into an owned Message
// and reports the bytes consumed.
func Unmarshal(raw []byte) (*Message, int, error) {
	v, n, err := Scan(raw)
	if err != nil {
		return nil, 0, err
	}
	return &Message{
		MethodID: v.MethodID, Exchange: string(v.Exchange), RoutingKey: string(v.RoutingKey),
		Envelope: Envelope{
			MsgID: string(v.MsgID), ReqID: string(v.ReqID), ReplyTo: string(v.ReplyTo),
			Method: string(v.Method), Failure: string(v.Failure),
			Args: bytes.Clone(v.Args), Result: bytes.Clone(v.Result),
		},
	}, n, nil
}

// IsAMQP reports whether raw starts with a plausible AMQP frame header.
// Agents use this to cheaply distinguish broker traffic from HTTP.
func IsAMQP(raw []byte) bool {
	return len(raw) >= 8 && (raw[0] == FrameMethod || raw[0] == FrameHeader || raw[0] == FrameBody)
}
