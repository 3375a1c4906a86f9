// Package rest implements a hand-rolled HTTP/1.1 wire codec for the
// inter-service REST traffic in the OpenStack simulation.
//
// OpenStack mandates that all inter-service communication happens via REST
// (§2 "Communication"). The simulator serializes every REST exchange to
// real HTTP/1.1 bytes so GRETEL's monitoring agents exercise the same
// parsing path the paper's Bro agents did: reconstruct the request line or
// status line and headers from raw bytes, without touching JSON bodies.
//
// The codec intentionally supports the subset OpenStack clients use:
// Content-Length framed bodies (no chunked transfer encoding), token
// headers, and the standard status-reason table.
//
// There is one parser. ScanRequest and ScanResponse scan a message in
// place and return a view — byte slices into the scanned input, valid
// only while it is unchanged — with the header block as Fields, looked
// up by name without building a pair list; that is what the monitoring
// agent runs per tapped message, and it allocates nothing.
// ParseRequest and ParseResponse copy a view into an owned Request or
// Response for callers that keep the message.
package rest

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Error values returned by the parsers.
var (
	ErrShortMessage = errors.New("rest: message truncated")
	ErrBadStartLine = errors.New("rest: malformed start line")
	ErrBadHeader    = errors.New("rest: malformed header")
	ErrBadLength    = errors.New("rest: bad Content-Length")
)

const crlf = "\r\n"

// Header is an ordered list of key/value pairs. Order is preserved because
// the wire encoding must be byte-stable for deterministic replay.
type Header struct {
	pairs [][2]string
}

// Set appends or replaces the first header with the given (case-insensitive)
// key.
func (h *Header) Set(key, value string) {
	for i := range h.pairs {
		if strings.EqualFold(h.pairs[i][0], key) {
			h.pairs[i][1] = value
			return
		}
	}
	h.pairs = append(h.pairs, [2]string{key, value})
}

// Get returns the first value for the (case-insensitive) key, or "".
func (h *Header) Get(key string) string {
	for i := range h.pairs {
		if strings.EqualFold(h.pairs[i][0], key) {
			return h.pairs[i][1]
		}
	}
	return ""
}

// Len reports the number of header fields.
func (h *Header) Len() int { return len(h.pairs) }

// Pairs returns the headers in wire order. The slice aliases internal
// state; callers must not mutate it.
func (h *Header) Pairs() [][2]string { return h.pairs }

func (h *Header) write(b *bytes.Buffer) {
	for _, p := range h.pairs {
		b.WriteString(p[0])
		b.WriteString(": ")
		b.WriteString(p[1])
		b.WriteString(crlf)
	}
}

// Request is an HTTP/1.1 request message.
type Request struct {
	Method string
	// Path is the concrete request URI (with real identifiers), as sent
	// on the wire. Normalization to an API template happens in the agent.
	Path   string
	Header Header
	Body   []byte
}

// Response is an HTTP/1.1 response message.
type Response struct {
	Status int
	Reason string
	Header Header
	Body   []byte
}

// reasonPhrases covers the status codes the simulation produces. Unknown
// codes render a generic phrase; parsing accepts any phrase.
var reasonPhrases = map[int]string{
	200: "OK",
	201: "Created",
	202: "Accepted",
	204: "No Content",
	300: "Multiple Choices",
	400: "Bad Request",
	401: "Unauthorized",
	403: "Forbidden",
	404: "Not Found",
	409: "Conflict",
	413: "Request Entity Too Large",
	429: "Too Many Requests",
	500: "Internal Server Error",
	503: "Service Unavailable",
	504: "Gateway Timeout",
}

// ReasonPhrase returns the standard reason phrase for an HTTP status code.
func ReasonPhrase(status int) string {
	if r, ok := reasonPhrases[status]; ok {
		return r
	}
	return "Unknown"
}

// MarshalRequest encodes the request to HTTP/1.1 wire bytes. A
// Content-Length header is always emitted so the receiver can frame the
// body without connection teardown.
func MarshalRequest(r *Request) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1%s", r.Method, r.Path, crlf)
	r.Header.write(&b)
	fmt.Fprintf(&b, "Content-Length: %d%s%s", len(r.Body), crlf, crlf)
	b.Write(r.Body)
	return b.Bytes()
}

// MarshalResponse encodes the response to HTTP/1.1 wire bytes. If Reason is
// empty the standard phrase for the status is used.
func MarshalResponse(r *Response) []byte {
	reason := r.Reason
	if reason == "" {
		reason = ReasonPhrase(r.Status)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s%s", r.Status, reason, crlf)
	r.Header.write(&b)
	fmt.Fprintf(&b, "Content-Length: %d%s%s", len(r.Body), crlf, crlf)
	b.Write(r.Body)
	return b.Bytes()
}

// Fields is the header block of one scanned message — the lines between
// the start line and the blank line — aliasing the scanned bytes.
type Fields []byte

// Get returns the first value for the (case-insensitive) key, trimmed
// of surrounding space, or nil. It allocates nothing.
func (f Fields) Get(name string) []byte {
	want := []byte(name) // does not escape: on the stack for any real header name
	for rest := []byte(f); len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, crlfBytes)
		if k, v, ok := bytes.Cut(line, colon); ok && bytes.EqualFold(bytes.TrimSpace(k), want) {
			return bytes.TrimSpace(v)
		}
	}
	return nil
}

// parseHeader copies a header block — a string the caller owns — into
// a Header, in wire order; the pairs are substrings of it.
func parseHeader(block string) (h Header) {
	if len(block) == 0 {
		return h
	}
	h.pairs = make([][2]string, 0, strings.Count(block, crlf)+1)
	for len(block) > 0 {
		var line string
		line, block, _ = strings.Cut(block, crlf)
		k, v, _ := strings.Cut(line, ":")
		h.pairs = append(h.pairs, [2]string{strings.TrimSpace(k), strings.TrimSpace(v)})
	}
	return h
}

// RequestView and ResponseView are the header-level views of one
// message that ScanRequest and ScanResponse yield. Every slice aliases
// the scanned bytes and is valid only as long as they are; a caller
// that keeps anything copies it out.
type RequestView struct {
	Method, Path []byte
	Header       Fields
	Body         []byte
}

type ResponseView struct {
	Status int
	Reason []byte
	Header Fields
	Body   []byte
}

var (
	crlfBytes   = []byte(crlf)
	headEndMark = []byte(crlf + crlf)
	colon       = []byte(":")
	space       = []byte(" ")
	httpPrefix  = []byte("HTTP/")
	lengthKey   = []byte("Content-Length")
)

// scan splits raw into start line, header block and body in place,
// honoring Content-Length, and reports the bytes consumed so a stream
// parser can handle back-to-back messages on one connection. It
// allocates only to describe an error.
func scan(raw []byte) (start []byte, hdr Fields, body []byte, consumed int, err error) {
	headEnd := bytes.Index(raw, headEndMark)
	if headEnd < 0 {
		return nil, nil, nil, 0, ErrShortMessage
	}
	start, rest, more := bytes.Cut(raw[:headEnd], crlfBytes)
	if len(start) == 0 {
		return nil, nil, nil, 0, ErrBadStartLine
	}
	hdr = rest
	bodyLen := 0
	for more {
		var line []byte
		line, rest, more = bytes.Cut(rest, crlfBytes)
		k, v, ok := bytes.Cut(line, colon)
		if !ok {
			return nil, nil, nil, 0, fmt.Errorf("%w: %q", ErrBadHeader, line)
		}
		if bytes.EqualFold(bytes.TrimSpace(k), lengthKey) {
			bodyLen, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || bodyLen < 0 {
				return nil, nil, nil, 0, ErrBadLength
			}
		}
	}
	bodyStart := headEnd + len(headEndMark)
	if bodyLen > len(raw)-bodyStart { // not bodyStart+bodyLen: a tapped length may be near MaxInt
		return nil, nil, nil, 0, ErrShortMessage
	}
	return start, hdr, raw[bodyStart : bodyStart+bodyLen], bodyStart + bodyLen, nil
}

// ScanRequest scans one HTTP/1.1 request at the front of raw without
// copying it, and reports the bytes consumed (trailing bytes may belong
// to the next pipelined message).
func ScanRequest(raw []byte) (RequestView, int, error) {
	start, hdr, body, n, err := scan(raw)
	if err != nil {
		return RequestView{}, 0, err
	}
	method, rest, _ := bytes.Cut(start, space)
	path, proto, ok := bytes.Cut(rest, space)
	if !ok || !bytes.HasPrefix(proto, httpPrefix) {
		return RequestView{}, 0, fmt.Errorf("%w: %q", ErrBadStartLine, start)
	}
	return RequestView{Method: method, Path: path, Header: hdr, Body: body}, n, nil
}

// ScanResponse scans one HTTP/1.1 response at the front of raw without
// copying it, and reports the bytes consumed.
func ScanResponse(raw []byte) (ResponseView, int, error) {
	start, hdr, body, n, err := scan(raw)
	if err != nil {
		return ResponseView{}, 0, err
	}
	proto, rest, ok := bytes.Cut(start, space)
	if !ok || !bytes.HasPrefix(proto, httpPrefix) {
		return ResponseView{}, 0, fmt.Errorf("%w: %q", ErrBadStartLine, start)
	}
	code, reason, _ := bytes.Cut(rest, space)
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return ResponseView{}, 0, fmt.Errorf("%w: status %q", ErrBadStartLine, code)
	}
	return ResponseView{Status: status, Reason: reason, Header: hdr, Body: body}, n, nil
}

// ParseRequest decodes one HTTP/1.1 request from raw into an owned
// Request (its Body still aliases raw) and reports the bytes consumed.
// The strings share one copy of the head: the start line leads it and
// the header block ends it.
func ParseRequest(raw []byte) (*Request, int, error) {
	v, n, err := ScanRequest(raw)
	if err != nil {
		return nil, 0, err
	}
	head := string(raw[:n-len(v.Body)-len(headEndMark)])
	m := len(v.Method)
	return &Request{Method: head[:m], Path: head[m+1 : m+1+len(v.Path)],
		Header: parseHeader(head[len(head)-len(v.Header):]), Body: v.Body}, n, nil
}

// ParseResponse decodes one HTTP/1.1 response from raw into an owned
// Response (its Body still aliases raw) and reports the bytes consumed.
func ParseResponse(raw []byte) (*Response, int, error) {
	v, n, err := ScanResponse(raw)
	if err != nil {
		return nil, 0, err
	}
	return &Response{Status: v.Status, Reason: string(v.Reason), Header: parseHeader(string(v.Header)), Body: v.Body}, n, nil
}

// IsResponse reports whether raw starts like an HTTP response (rather than
// a request), without fully parsing it. Agents use this to classify tapped
// bytes cheaply.
func IsResponse(raw []byte) bool {
	return bytes.HasPrefix(raw, []byte("HTTP/"))
}

// NormalizePath rewrites a concrete request path into its API template by
// replacing path segments that look like identifiers (UUIDs, long hex or
// numeric ids) with "{id}". This is how agents collapse concrete URIs onto
// the finite API set without payload inspection.
func NormalizePath(path string) string {
	return string(AppendNormalizedPath(nil, []byte(path)))
}

// AppendNormalizedPath appends path's API template (see NormalizePath)
// to dst and returns the extended buffer.
func AppendNormalizedPath(dst, path []byte) []byte {
	if q := bytes.IndexByte(path, '?'); q >= 0 {
		path = path[:q]
	}
	for {
		seg, rest, more := bytes.Cut(path, slash)
		if looksLikeID(seg) {
			dst = append(dst, "{id}"...)
		} else {
			dst = append(dst, seg...)
		}
		if !more {
			return dst
		}
		dst = append(dst, '/')
		path = rest
	}
}

var slash = []byte("/")

// looksLikeID reports whether a path segment is a concrete identifier:
// a UUID-shaped token, a hex string of 8+ chars, or a decimal number.
func looksLikeID(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	// Decimal identifiers.
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
	// UUID-ish: hex and dashes, at least 8 hex chars, no letters beyond f.
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
