package rest

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The parsers as they were before the in-place scanner: string-based,
// one Header pair allocated per line. They are the oracle the scanner
// is differentially tested against (FuzzScanEquivalence); the only edit
// is the body-length comparison, which used to overflow.

func refSplitMessage(raw []byte) (start string, hdr Header, body []byte, consumed int, err error) {
	headEnd := bytes.Index(raw, []byte(crlf+crlf))
	if headEnd < 0 {
		return "", Header{}, nil, 0, ErrShortMessage
	}
	head := string(raw[:headEnd])
	lines := strings.Split(head, crlf)
	if len(lines) == 0 || lines[0] == "" {
		return "", Header{}, nil, 0, ErrBadStartLine
	}
	start = lines[0]
	contentLen := 0
	for _, ln := range lines[1:] {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return "", Header{}, nil, 0, fmt.Errorf("%w: %q", ErrBadHeader, ln)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		hdr.pairs = append(hdr.pairs, [2]string{k, v})
		if strings.EqualFold(k, "Content-Length") {
			contentLen, err = strconv.Atoi(v)
			if err != nil || contentLen < 0 {
				return "", Header{}, nil, 0, ErrBadLength
			}
		}
	}
	bodyStart := headEnd + 4
	if contentLen > len(raw)-bodyStart {
		return "", Header{}, nil, 0, ErrShortMessage
	}
	body = raw[bodyStart : bodyStart+contentLen]
	return start, hdr, body, bodyStart + contentLen, nil
}

func refParseRequest(raw []byte) (*Request, int, error) {
	start, hdr, body, n, err := refSplitMessage(raw)
	if err != nil {
		return nil, 0, err
	}
	parts := strings.SplitN(start, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: %q", ErrBadStartLine, start)
	}
	return &Request{Method: parts[0], Path: parts[1], Header: hdr, Body: body}, n, nil
}

func refParseResponse(raw []byte) (*Response, int, error) {
	start, hdr, body, n, err := refSplitMessage(raw)
	if err != nil {
		return nil, 0, err
	}
	parts := strings.SplitN(start, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: %q", ErrBadStartLine, start)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: status %q", ErrBadStartLine, parts[1])
	}
	reason := ""
	if len(parts) == 3 {
		reason = parts[2]
	}
	return &Response{Status: status, Reason: reason, Header: hdr, Body: body}, n, nil
}

func refNormalizePath(path string) string {
	path, _, _ = strings.Cut(path, "?")
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if refLooksLikeID(s) {
			segs[i] = "{id}"
		}
	}
	return strings.Join(segs, "/")
}

func refLooksLikeID(s string) bool {
	if len(s) == 0 {
		return false
	}
	allDigit := true
	for _, c := range s {
		if c < '0' || c > '9' {
			allDigit = false
			break
		}
	}
	if allDigit {
		return true
	}
	hexCount := 0
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
			hexCount++
		case c == '-':
		default:
			return false
		}
	}
	return hexCount >= 8
}

// overflowLength is the tapped Content-Length that used to panic the
// parser: bodyStart+contentLen wrapped negative.
const overflowLength = "GET /x HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\nabc"

// sameErr requires both parsers to fail alike, message included.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: scanner error %v, reference %v", what, got, want)
	}
}

// sameHeader requires the wrapper's Header to hold the reference's
// pairs.
func sameHeader(t *testing.T, got, want Header) {
	t.Helper()
	if fmt.Sprint(got.pairs) != fmt.Sprint(want.pairs) {
		t.Fatalf("header pairs %q, reference %q", got.pairs, want.pairs)
	}
}

// sameField requires a field the scanner picked out of the head to be
// the reference Header's first match for its name, trimmed.
func sameField(t *testing.T, name string, got []byte, want Header) {
	t.Helper()
	if w := want.Get(name); string(got) != w {
		t.Fatalf("%s = %q, reference %q", name, got, w)
	}
}

// FuzzScanEquivalence holds the in-place scanner (and the Parse
// wrappers over it) to the reference parsers on arbitrary bytes: same
// accept/reject and error, same bytes consumed, same fields, and the
// picked-out Host and request id equal to the reference's first match
// (case-folded key, trimmed value); and the
// append form of path normalization to the string form.
func FuzzScanEquivalence(f *testing.F) {
	for _, seed := range []string{
		"GET /v2.1/servers HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
		"POST /v2/images/6f1c3b2a-99aa-4b1c-8d77-aabbccddeeff/file?x=1 HTTP/1.1\r\nHost: glance:9292\r\nX-Openstack-Request-Id:  req-1 \r\nContent-Length: 2\r\n\r\n{}GET /next",
		"HTTP/1.1 413 Request Entity Too Large\r\nContent-Length: 4\r\n\r\nbody",
		"HTTP/1.1 200\r\n\r\n",    // two-part status line
		"HTTP/1.1 abc OK\r\n\r\n", // non-numeric status
		"HTTP/1.1\r\n\r\n",        // no status at all
		"GET /x\r\n\r\n",          // two-part request line
		"GET /x FTP/1\r\n\r\n",    // wrong protocol
		" /x HTTP/1.1\r\n\r\n",    // empty method
		"GET / HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 3\r\n\r\nabcd", // duplicate: last wins
		"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: +2\r\n\r\nab",
		"GET / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
		"GARBAGE\r\nNoColon\r\n\r\n", // header without colon
		"GET / HTTP/1.1\r\n\r\n\r\n",
		"\r\n\r\n",
		"\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\n : empty key\r\nHoſt: long-s\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost:  \r\nhost: b\r\nx-openstack-request-id:\r\nX-Openstack-Request-Id: r\r\n\r\n", // empty first match wins
		"GET / HTTP/1.1\r\nX-Openstac\u212a-Requeſt-Id: kelvin\r\n\r\n",                                        // non-ASCII folds onto the key
		"HTTP/1.1 200 OK\r\nNoColon\r\nX-Openstack-Request-Id: r\r\n",                                          // bad line, no empty line: short
		"GET / HTTP/1.1\r\nContent-Length: x\r\nNoColon\r\n\r\n",                                               // first bad line wins
		"GET / HTTP/1.1\r\nno terminator",
		overflowLength,
		"/v2.0/ports/0123456789abcdef/../12345//deadbeef-cafe?q=/1",
		"/0A/-/12-34/0123-4567-/ABCDEF01", // short hex, a bare dash, dashed digits
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wantReq, wantN, wantErr := refParseRequest(raw)
		view, n, err := ScanRequest(raw)
		req, pn, perr := ParseRequest(raw)
		sameErr(t, "ScanRequest", err, wantErr)
		sameErr(t, "ParseRequest", perr, wantErr)
		if n != wantN || pn != wantN {
			t.Fatalf("request consumed %d (wrapper %d), reference %d", n, pn, wantN)
		}
		if wantErr == nil {
			if string(view.Method) != wantReq.Method || string(view.Path) != wantReq.Path || !bytes.Equal(view.Body, wantReq.Body) ||
				req.Method != wantReq.Method || req.Path != wantReq.Path || !bytes.Equal(req.Body, wantReq.Body) {
				t.Fatalf("request %q %q, reference %q %q", view.Method, view.Path, wantReq.Method, wantReq.Path)
			}
			sameHeader(t, req.Header, wantReq.Header)
			sameField(t, "Host", view.Host, wantReq.Header)
			sameField(t, "X-Openstack-Request-Id", view.RequestID, wantReq.Header)
		}

		wantResp, wantN, wantErr := refParseResponse(raw)
		rview, n, err := ScanResponse(raw)
		resp, pn, perr := ParseResponse(raw)
		sameErr(t, "ScanResponse", err, wantErr)
		sameErr(t, "ParseResponse", perr, wantErr)
		if n != wantN || pn != wantN {
			t.Fatalf("response consumed %d (wrapper %d), reference %d", n, pn, wantN)
		}
		if wantErr == nil {
			if rview.Status != wantResp.Status || string(rview.Reason) != wantResp.Reason || !bytes.Equal(rview.Body, wantResp.Body) ||
				resp.Status != wantResp.Status || resp.Reason != wantResp.Reason || !bytes.Equal(resp.Body, wantResp.Body) {
				t.Fatalf("response %d %q, reference %d %q", rview.Status, rview.Reason, wantResp.Status, wantResp.Reason)
			}
			sameHeader(t, resp.Header, wantResp.Header)
			sameField(t, "X-Openstack-Request-Id", rview.RequestID, wantResp.Header)
		}

		want := refNormalizePath(string(raw))
		if got := string(AppendNormalizedPath([]byte("pre"), raw)); got != "pre"+want {
			t.Fatalf("AppendNormalizedPath(%q) = %q, reference %q", raw, got, "pre"+want)
		}
		if got := NormalizePath(string(raw)); got != want {
			t.Fatalf("NormalizePath(%q) = %q, reference %q", raw, got, want)
		}
	})
}
