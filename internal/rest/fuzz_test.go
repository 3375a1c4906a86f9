package rest

import (
	"bytes"
	"testing"
)

// FuzzParseRequest hardens the request parser: arbitrary bytes must never
// panic, and whatever parses must re-marshal to something that parses to
// the same method/path/body.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET /v2.1/servers HTTP/1.1\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("POST /v2/images HTTP/1.1\r\nHost: glance\r\nContent-Length: 2\r\n\r\n{}"))
	f.Add([]byte("garbage\r\n\r\n"))
	f.Add([]byte{0x01, 0x00, 0xCE})
	f.Add([]byte(overflowLength))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, n, err := ParseRequest(raw)
		if err != nil {
			return
		}
		if n <= 0 || n > len(raw) {
			t.Fatalf("consumed %d of %d", n, len(raw))
		}
		re := MarshalRequest(req)
		req2, _, err := ParseRequest(re)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if req2.Method != req.Method || req2.Path != req.Path || !bytes.Equal(req2.Body, req.Body) {
			t.Fatal("re-marshal not stable")
		}
	})
}

// FuzzParseResponse is the response-side twin.
func FuzzParseResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 413 Request Entity Too Large\r\nContent-Length: 4\r\n\r\nbody"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\nabc"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		resp, n, err := ParseResponse(raw)
		if err != nil {
			return
		}
		if n <= 0 || n > len(raw) {
			t.Fatalf("consumed %d of %d", n, len(raw))
		}
		re := MarshalResponse(resp)
		resp2, _, err := ParseResponse(re)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if resp2.Status != resp.Status || !bytes.Equal(resp2.Body, resp.Body) {
			t.Fatal("re-marshal not stable")
		}
	})
}
