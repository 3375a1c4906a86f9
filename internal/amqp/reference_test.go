package amqp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refUnmarshal is Unmarshal as it was before the in-place scanner: the
// same three-frame walk, then encoding/json reflection over the whole
// envelope. It is the oracle Scan is differentially tested against.
func refUnmarshal(raw []byte) (*Message, int, error) {
	ftype, _, payload, n1, err := readFrame(raw)
	if err != nil {
		return nil, 0, err
	}
	if ftype != FrameMethod {
		return nil, 0, fmt.Errorf("%w: expected method frame, got %d", ErrBadFrame, ftype)
	}
	if len(payload) < 4 {
		return nil, 0, ErrBadFrame
	}
	class := binary.BigEndian.Uint16(payload[0:2])
	if class != 60 {
		return nil, 0, fmt.Errorf("%w: class %d", ErrBadFrame, class)
	}
	m := &Message{MethodID: binary.BigEndian.Uint16(payload[2:4])}
	exch, en, err := readShortStr(payload[4:])
	if err != nil {
		return nil, 0, err
	}
	rk, _, err := readShortStr(payload[4+en:])
	if err != nil {
		return nil, 0, err
	}
	m.Exchange, m.RoutingKey = string(exch), string(rk)

	ftype, _, headerPayload, n2, err := readFrame(raw[n1:])
	if err != nil {
		return nil, 0, err
	}
	if ftype != FrameHeader || len(headerPayload) < 8 {
		return nil, 0, fmt.Errorf("%w: expected content header", ErrBadFrame)
	}
	bodySize := binary.BigEndian.Uint64(headerPayload[:8])

	ftype, _, body, n3, err := readFrame(raw[n1+n2:])
	if err != nil {
		return nil, 0, err
	}
	if ftype != FrameBody {
		return nil, 0, fmt.Errorf("%w: expected body frame", ErrBadFrame)
	}
	if uint64(len(body)) != bodySize {
		return nil, 0, fmt.Errorf("%w: header says %d body bytes, frame has %d", ErrBadFrame, bodySize, len(body))
	}
	if err := json.Unmarshal(body, &m.Envelope); err != nil {
		return nil, 0, fmt.Errorf("amqp: decoding envelope: %w", err)
	}
	return m, n1 + n2 + n3, nil
}

// framed wraps an arbitrary envelope body in three well-formed frames,
// so the fuzzer can mutate the JSON without having to keep the frame
// sizes consistent.
func framed(body []byte) []byte {
	var method, out bytes.Buffer
	method.Write([]byte{0, 60, 0, byte(BasicDeliver)})
	writeShortStr(&method, "nova")
	writeShortStr(&method, "compute.compute-1")
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(len(body)))
	writeFrame(&out, FrameMethod, 1, method.Bytes())
	writeFrame(&out, FrameHeader, 1, sz[:])
	writeFrame(&out, FrameBody, 1, body)
	return out.Bytes()
}

// checkScan holds Scan and the Unmarshal wrapper to the reference on
// one input, and reports whether the envelope took the scanned path.
func checkScan(t *testing.T, raw []byte) {
	t.Helper()
	want, wantN, wantErr := refUnmarshal(raw)
	v, n, err := Scan(raw)
	got, gn, gerr := Unmarshal(raw)
	for _, e := range []error{err, gerr} {
		if (e == nil) != (wantErr == nil) || (e != nil && e.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference %v", e, wantErr)
		}
	}
	if n != wantN || gn != wantN {
		t.Fatalf("consumed %d (wrapper %d), reference %d", n, gn, wantN)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unmarshal = %+v\nreference  %+v", got, want)
	}
	view := Message{
		MethodID: v.MethodID, Exchange: string(v.Exchange), RoutingKey: string(v.RoutingKey),
		Envelope: Envelope{
			MsgID: string(v.MsgID), ReqID: string(v.ReqID), ReplyTo: string(v.ReplyTo),
			Method: string(v.Method), Failure: string(v.Failure),
			Args: bytes.Clone(v.Args), Result: bytes.Clone(v.Result),
		},
	}
	if !reflect.DeepEqual(&view, want) {
		t.Fatalf("Scan view = %+v\nreference   %+v", view, want)
	}
}

// envelopeSeeds are the shapes encoding/json and a hand-written scanner
// most plausibly disagree on.
var envelopeSeeds = []string{
	`{"_msg_id":"m1","_request_id":"req-1","_reply_q":"reply_nova","method":"build_and_run_instance","args":{}}`,
	`{"_msg_id":"m1","result":{},"failure":"RemoteError: boom"}`,
	`{"_msg_id":"m1","args":{"a":"}","b":["]","\"",{"c":"\\"}],"d":"\u00e9"}}`,
	`{"_msg_id":"m1","result":null}`,
	`{"_msg_id":"m1","result":-12.5e+3}`,
	`{"_msg_id":"m1","result":01}`,
	`{"_msg_id":"m1","result":tru}`,
	`{"_msg_id":"m1","_msg_id":"m2"}`,
	`{"_MSG_ID":"m1","Method":"x","ARGS":[1]}`,
	`{"_msg_id":"m\u0031","method":"a\"b"}`,
	"{\"_msg_id\":\"m\xc3\xa9\",\"failure\":\"bad \xff utf8\"}",
	`{"_msg_id":null,"method":null}`,
	`{"_msg_id":5}`,
	`{"method":{"nested":1}}`,
	`{"unknown":{"deep":[1,2,{"x":null}]},"other":true,"_msg_id":"m1"}`,
	`{"_m\u0073g_id":"escaped key","meſhod":"x","reſult":1}`,
	` { "_msg_id" : "m1" , "args" : [ 1 , 2 ] } `,
	`{"_msg_id":"m1",}`,
	`{"_msg_id":"m1"} trailing`,
	`{"_msg_id":"m1","args":{"a":1,}}`,
	"{\"_msg_id\":\"ctl\x01\"}",
	`{"args":"\ud800 lone surrogate","failure":"a\/b"}`,
	`{"args":"\x"}`,
	`{}`, `null`, `[]`, `"str"`, `12`, ``, `{`, `{"a"`, `{"a":`,
	`{"args":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}`,
	`{"args":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
}

func TestScanMatchesReference(t *testing.T) {
	for _, seed := range envelopeSeeds {
		checkScan(t, framed([]byte(seed)))
	}
}

// The simulator's envelopes are the plain form: the scan must take them
// itself (no trip through encoding/json) and allocate nothing.
func TestScanPlainEnvelopeInPlace(t *testing.T) {
	raw, err := Marshal(&Message{
		MethodID: BasicDeliver, Exchange: "nova", RoutingKey: "compute.compute-1",
		Envelope: Envelope{MsgID: "msg-0000000001", ReqID: "req-1", ReplyTo: "reply_nova",
			Method: "build_and_run_instance", Args: json.RawMessage(`{"image":{"id":"1","tags":["a","b"]},"n":2.5e1}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if v, _, err = Scan(raw); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per scan, want 0", n)
	}
	if string(v.Method) != "build_and_run_instance" || string(v.MsgID) != "msg-0000000001" || len(v.Args) == 0 {
		t.Fatalf("view = %+v", v)
	}
	checkScan(t, raw)
}

// FuzzScanEquivalence holds Scan (and the Unmarshal wrapper over it) to
// the reference on arbitrary bytes and on arbitrary envelope bodies in
// well-formed frames: same accept/reject and error, same bytes
// consumed, same fields.
func FuzzScanEquivalence(f *testing.F) {
	good := framed([]byte(envelopeSeeds[0]))
	badEnd := bytes.Clone(good)
	badEnd[len(badEnd)-1] = 0
	f.Add(good, []byte(envelopeSeeds[1]))
	f.Add(good[:len(good)-5], []byte(envelopeSeeds[2])) // truncated frame
	f.Add(badEnd, []byte(envelopeSeeds[3]))             // wrong frame-end
	f.Add(append(bytes.Clone(good), good...), []byte(envelopeSeeds[4]))
	f.Add([]byte{FrameMethod, 0, 1, 0, 0, 0, 0, FrameEnd}, []byte(envelopeSeeds[5]))
	for _, seed := range envelopeSeeds[6:] {
		f.Add([]byte("HTTP/1.1 200 OK\r\n\r\n"), []byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw, body []byte) {
		checkScan(t, raw)
		checkScan(t, framed(body))
	})
}
