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
// only while it is unchanged — in one walk over the head, with the
// header block as Fields and the two headers the monitoring agent reads
// (Host, X-Openstack-Request-Id) already picked out; that is what the
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
// message that ScanRequest and ScanResponse yield. Host and RequestID
// are the first Host and X-Openstack-Request-Id fields' values, trimmed
// of surrounding space (nil when absent): what Header.Get would answer
// for them. Every slice aliases the scanned bytes and is valid only as
// long as they are; a caller that keeps anything copies it out.
type RequestView struct {
	Method, Path    []byte
	Header          Fields
	Host, RequestID []byte
	Body            []byte
}

type ResponseView struct {
	Status    int
	Reason    []byte
	Header    Fields
	RequestID []byte
	Body      []byte
}

var (
	headEndMark  = []byte(crlf + crlf)
	space        = []byte(" ")
	httpPrefix   = []byte("HTTP/")
	lengthKey    = []byte("Content-Length")
	hostKey      = []byte("Host")
	requestIDKey = []byte("X-Openstack-Request-Id")
)

// message is one message split in place by scan.
type message struct {
	start           []byte
	header          Fields
	host, requestID []byte
	body            []byte
	consumed        int
}

// scan splits raw into start line, header block and body in place,
// honoring Content-Length (the last one wins), and reports the bytes
// consumed so a stream parser can handle back-to-back messages on one
// connection. It walks the head's lines once, up to the empty line that
// ends it, picking out the first Host and X-Openstack-Request-Id on the
// way. A message with no empty line is short whatever its lines hold;
// otherwise the first bad line is the error. It allocates only to
// describe an error.
func scan(raw []byte) (m message, err error) {
	eol := lineEnd(raw, 0)
	if eol < 0 {
		return message{}, ErrShortMessage
	}
	if eol == 0 {
		return message{}, headError(raw, eol, ErrBadStartLine, nil)
	}
	m.start = raw[:eol]
	bodyLen := 0
	i := eol + len(crlf) // the current line's first byte
	for {
		e := lineEnd(raw, i)
		if e < 0 {
			return message{}, ErrShortMessage
		}
		if e == i {
			break // the empty line
		}
		line := raw[i:e]
		c := bytes.IndexByte(line, ':')
		if c < 0 {
			return message{}, headError(raw, e, ErrBadHeader, line)
		}
		k, v := line[:c], line[c+1:]
		// Only a key whose first byte folds to c, h or x can name a
		// wanted field: no other rune folds onto those letters.
		switch k = bytes.TrimSpace(k); {
		case len(k) == 0:
		case k[0]|0x20 == 'c' && bytes.EqualFold(k, lengthKey):
			bodyLen, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || bodyLen < 0 {
				return message{}, headError(raw, e, ErrBadLength, nil)
			}
		case k[0]|0x20 == 'h' && m.host == nil && bytes.EqualFold(k, hostKey):
			m.host = fieldValue(v)
		case k[0]|0x20 == 'x' && m.requestID == nil && bytes.EqualFold(k, requestIDKey):
			m.requestID = fieldValue(v)
		}
		i = e + len(crlf)
	}
	if hdr := eol + len(crlf); i > hdr {
		m.header = raw[hdr : i-len(crlf)]
	}
	bodyStart := i + len(crlf)
	if bodyLen > len(raw)-bodyStart { // not bodyStart+bodyLen: a tapped length may be near MaxInt
		return message{}, ErrShortMessage
	}
	m.body = raw[bodyStart : bodyStart+bodyLen]
	m.consumed = bodyStart + bodyLen
	return m, nil
}

// lineEnd returns the index of the first CRLF in raw at or after i, or
// -1: an IndexByte for each '\n', checked for its '\r', costs less per
// line than a two-byte bytes.Index.
func lineEnd(raw []byte, i int) int {
	for from := i; ; i++ {
		j := bytes.IndexByte(raw[i:], '\n')
		if j < 0 {
			return -1
		}
		if i += j; i > from && raw[i-1] == '\r' {
			return i - 1
		}
	}
}

// headError is the error for a bad head line ending at eol: the message
// is short if no empty line follows, else err, quoting line if given.
func headError(raw []byte, eol int, err error, line []byte) error {
	switch {
	case bytes.Index(raw[eol:], headEndMark) < 0:
		return ErrShortMessage
	case line != nil:
		return fmt.Errorf("%w: %q", err, line)
	}
	return err
}

// fieldValue trims v of surrounding space, keeping an all-space value
// non-nil so that scan sees the field as found.
func fieldValue(v []byte) []byte {
	if t := bytes.TrimSpace(v); t != nil {
		return t
	}
	return v[:0]
}

// ScanRequest scans one HTTP/1.1 request at the front of raw without
// copying it, and reports the bytes consumed (trailing bytes may belong
// to the next pipelined message).
func ScanRequest(raw []byte) (RequestView, int, error) {
	m, err := scan(raw)
	if err != nil {
		return RequestView{}, 0, err
	}
	method, rest, _ := bytes.Cut(m.start, space)
	path, proto, ok := bytes.Cut(rest, space)
	if !ok || !bytes.HasPrefix(proto, httpPrefix) {
		return RequestView{}, 0, fmt.Errorf("%w: %q", ErrBadStartLine, m.start)
	}
	return RequestView{Method: method, Path: path, Header: m.header, Host: m.host, RequestID: m.requestID, Body: m.body}, m.consumed, nil
}

// ScanResponse scans one HTTP/1.1 response at the front of raw without
// copying it, and reports the bytes consumed.
func ScanResponse(raw []byte) (ResponseView, int, error) {
	m, err := scan(raw)
	if err != nil {
		return ResponseView{}, 0, err
	}
	proto, rest, ok := bytes.Cut(m.start, space)
	if !ok || !bytes.HasPrefix(proto, httpPrefix) {
		return ResponseView{}, 0, fmt.Errorf("%w: %q", ErrBadStartLine, m.start)
	}
	code, reason, _ := bytes.Cut(rest, space)
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return ResponseView{}, 0, fmt.Errorf("%w: status %q", ErrBadStartLine, code)
	}
	return ResponseView{Status: status, Reason: reason, Header: m.header, RequestID: m.requestID, Body: m.body}, m.consumed, nil
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
	var seen uint8
	hex := 0
	for _, c := range s {
		k := idClass[c]
		if k == 0 {
			return false
		}
		seen |= k
		hex += int(k & idHex)
	}
	return seen == idHex || hex >= 8 // all decimal digits, or enough hex
}

// idClass sorts the bytes an identifier may hold, in one table so that
// looksLikeID makes one pass: hex digits have idHex (the letters
// idLetter too), and '-' has idDash.
const idHex, idLetter, idDash = 1, 2, 4

var idClass = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = idHex
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c], t[c-'a'+'A'] = idHex|idLetter, idHex|idLetter
	}
	t['-'] = idDash
	return t
}()
