package rest

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{Method: "POST", Path: "/v2.1/servers", Body: []byte(`{"server":{}}`)}
	req.Header.Set("Host", "nova")
	req.Header.Set("X-Auth-Token", "tok-123")
	raw := MarshalRequest(req)
	got, n, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d bytes", n, len(raw))
	}
	if got.Method != "POST" || got.Path != "/v2.1/servers" {
		t.Fatalf("start line mismatch: %+v", got)
	}
	if got.Header.Get("host") != "nova" || got.Header.Get("X-AUTH-TOKEN") != "tok-123" {
		t.Fatalf("headers lost: %+v", got.Header)
	}
	if !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("body mismatch: %q", got.Body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{Status: 413, Body: []byte(`{"message":"Request Entity Too Large"}`)}
	resp.Header.Set("Content-Type", "application/json")
	raw := MarshalResponse(resp)
	got, n, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if got.Status != 413 || got.Reason != "Request Entity Too Large" {
		t.Fatalf("status line mismatch: %d %q", got.Status, got.Reason)
	}
	if !bytes.Equal(got.Body, resp.Body) {
		t.Fatalf("body mismatch")
	}
}

func TestResponseCustomReason(t *testing.T) {
	resp := &Response{Status: 500, Reason: "Boom"}
	got, _, err := ParseResponse(MarshalResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "Boom" {
		t.Fatalf("Reason = %q", got.Reason)
	}
}

func TestEmptyBody(t *testing.T) {
	req := &Request{Method: "GET", Path: "/v2.0/ports.json"}
	got, _, err := ParseRequest(MarshalRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 {
		t.Fatalf("expected empty body, got %q", got.Body)
	}
}

func TestPipelinedMessages(t *testing.T) {
	a := MarshalRequest(&Request{Method: "GET", Path: "/a"})
	b := MarshalRequest(&Request{Method: "GET", Path: "/b", Body: []byte("xyz")})
	raw := append(append([]byte{}, a...), b...)
	first, n, err := ParseRequest(raw)
	if err != nil || first.Path != "/a" {
		t.Fatalf("first parse: %v %+v", err, first)
	}
	second, n2, err := ParseRequest(raw[n:])
	if err != nil || second.Path != "/b" || string(second.Body) != "xyz" {
		t.Fatalf("second parse: %v %+v", err, second)
	}
	if n+n2 != len(raw) {
		t.Fatalf("consumed %d, want %d", n+n2, len(raw))
	}
}

func TestTruncatedMessage(t *testing.T) {
	raw := MarshalRequest(&Request{Method: "POST", Path: "/x", Body: []byte("hello world")})
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := ParseRequest(raw[:cut]); err == nil {
			// Only acceptable if the truncation happens to form a complete
			// message, which cannot occur since Content-Length covers the
			// full body.
			t.Fatalf("truncation at %d parsed successfully", cut)
		}
	}
}

func TestMalformedStartLine(t *testing.T) {
	raw := []byte("GARBAGE\r\nContent-Length: 0\r\n\r\n")
	if _, _, err := ParseRequest(raw); !errors.Is(err, ErrBadStartLine) {
		t.Fatalf("err = %v, want ErrBadStartLine", err)
	}
	if _, _, err := ParseResponse(raw); !errors.Is(err, ErrBadStartLine) {
		t.Fatalf("response err = %v, want ErrBadStartLine", err)
	}
}

func TestMalformedHeader(t *testing.T) {
	raw := []byte("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n")
	if _, _, err := ParseRequest(raw); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

func TestBadContentLength(t *testing.T) {
	raw := []byte("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
	if _, _, err := ParseRequest(raw); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
	raw = []byte("GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
	if _, _, err := ParseRequest(raw); !errors.Is(err, ErrBadLength) {
		t.Fatalf("negative err = %v, want ErrBadLength", err)
	}
	// A length near MaxInt is a body not yet seen, not a slice bound.
	if _, _, err := ParseRequest([]byte(overflowLength)); err != ErrShortMessage {
		t.Fatalf("huge length err = %v, want ErrShortMessage", err)
	}
}

// The scanner, with the headers it picks out, is the Monitor's
// per-message path: it must not allocate.
func TestScanAllocatesNothing(t *testing.T) {
	req := []byte("PUT /v2/images/6f1c3b2a-99aa-4b1c-8d77-aabbccddeeff/file HTTP/1.1\r\nHost: glance\r\nX-Openstack-Request-Id: req-0123456789abcdef\r\nContent-Length: 2\r\n\r\n{}")
	resp := []byte("HTTP/1.1 200 OK\r\nX-Openstack-Request-Id: req-0123456789abcdef\r\nContent-Length: 2\r\n\r\n{}")
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		v, _, err := ScanRequest(req)
		if err != nil || string(v.Host) != "glance" || len(v.RequestID) == 0 {
			t.Fatal("request did not scan")
		}
		buf = AppendNormalizedPath(buf[:0], v.Path)
		if r, _, err := ScanResponse(resp); err != nil || r.Status != 200 || len(r.RequestID) == 0 {
			t.Fatal("response did not scan")
		}
	}); n != 0 {
		t.Fatalf("%v allocations per scan, want 0", n)
	}
}

func TestBadResponseStatus(t *testing.T) {
	raw := []byte("HTTP/1.1 abc Odd\r\nContent-Length: 0\r\n\r\n")
	if _, _, err := ParseResponse(raw); !errors.Is(err, ErrBadStartLine) {
		t.Fatalf("err = %v, want ErrBadStartLine", err)
	}
}

func TestIsResponse(t *testing.T) {
	if IsResponse(MarshalRequest(&Request{Method: "GET", Path: "/x"})) {
		t.Error("request classified as response")
	}
	if !IsResponse(MarshalResponse(&Response{Status: 200})) {
		t.Error("response not classified")
	}
}

func TestReasonPhrase(t *testing.T) {
	if ReasonPhrase(413) != "Request Entity Too Large" {
		t.Errorf("413 phrase = %q", ReasonPhrase(413))
	}
	if ReasonPhrase(299) != "Unknown" {
		t.Errorf("unknown phrase = %q", ReasonPhrase(299))
	}
}

func TestHeaderSetReplaces(t *testing.T) {
	var h Header
	h.Set("X-A", "1")
	h.Set("x-a", "2")
	if h.Len() != 1 || h.Get("X-A") != "2" {
		t.Fatalf("Set did not replace case-insensitively: %+v", h)
	}
}

func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"/v2.1/servers":    "/v2.1/servers",
		"/v2.1/servers/42": "/v2.1/servers/{id}",
		"/v2.1/servers/6f1c3b2a-99aa-4b1c-8d77-aabbccddeeff": "/v2.1/servers/{id}",
		"/v2/images/deadbeef01/file":                         "/v2/images/{id}/file",
		"/v2.0/ports.json":                                   "/v2.0/ports.json",
		"/v2.0/ports.json?tenant_id=77":                      "/v2.0/ports.json",
		"/v2.0/quotas/1234":                                  "/v2.0/quotas/{id}",
		"/v3/auth/tokens":                                    "/v3/auth/tokens",
		"/v2.0/security-groups":                              "/v2.0/security-groups",
		"/v2.1/servers/abc":                                  "/v2.1/servers/abc", // short hex-ish word stays
	}
	for in, want := range cases {
		if got := NormalizePath(in); got != want {
			t.Errorf("NormalizePath(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: round trip preserves method, path and body for any body bytes.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(body []byte) bool {
		req := &Request{Method: "PUT", Path: "/v2/images/x/file", Body: body}
		got, n, err := ParseRequest(MarshalRequest(req))
		return err == nil && n == len(MarshalRequest(req)) &&
			got.Method == "PUT" && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: marshaled requests always contain exactly one blank line
// separating head from body (no CRLF injection from headers we set).
func TestMarshalFraming(t *testing.T) {
	req := &Request{Method: "GET", Path: "/x"}
	req.Header.Set("X-Service", "nova")
	raw := string(MarshalRequest(req))
	if strings.Count(raw, "\r\n\r\n") != 1 {
		t.Fatalf("framing broken: %q", raw)
	}
}
