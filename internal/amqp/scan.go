package amqp

// The envelope scanner. json.Unmarshal into Envelope is the envelope's
// specification, and it is wide: keys match case-folded, a duplicate key
// overwrites, strings carry escapes and have invalid UTF-8 replaced,
// null leaves a string empty. scanEnvelope implements only the plain
// form every oslo sender writes — exact keys, each at most once, string
// fields without escapes or non-ASCII bytes — validating everything it
// steps over, and answers false for any input it will not vouch for.
// It never rejects on its own: Scan hands whatever it declines to
// json.Unmarshal, so all it has to get right is to accept only valid
// plain envelopes, with the fields json would decode.

// maxScanDepth bounds nesting inside args/result on the scanned path;
// deeper payloads (encoding/json's own limit is 10000) are declined.
const maxScanDepth = 64

// envelopeKey numbers Envelope's JSON keys, the envelopeStrings string
// fields first, in the order scanEnvelope lists the View's fields; any
// other key is envelopeKeys. A switch, not a loop over the names: it
// tells the keys apart by length first.
func envelopeKey(key []byte) int {
	switch string(key) {
	case "_msg_id":
		return 0
	case "_request_id":
		return 1
	case "_reply_q":
		return 2
	case "method":
		return 3
	case "failure":
		return 4
	case "args":
		return 5
	case "result":
		return 6
	}
	return envelopeKeys
}

const envelopeKeys, envelopeStrings = 7, 5

// scanEnvelope walks the top level of the envelope in b, filling v's
// envelope fields with sub-slices of b. False means "not plain": v's
// envelope fields are then unspecified.
func scanEnvelope(b []byte, v *View) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	fields := [...]*[]byte{&v.MsgID, &v.ReqID, &v.ReplyTo, &v.Method, &v.Failure, &v.Args, &v.Result}
	seen := 0
	for {
		j, ok := skipString(b, i, true)
		if !ok {
			return false
		}
		key := b[i+1 : j-1]
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		k := envelopeKey(key)
		switch {
		case k == envelopeKeys:
			// An unknown key is skipped — unless it could case-fold onto
			// a known one, which only a key with an upper-case letter can
			// (the known keys are lower-case ASCII; escapes and non-ASCII
			// bytes were declined with the key itself).
			for _, c := range key {
				if 'A' <= c && c <= 'Z' {
					return false
				}
			}
			j, ok = skipValue(b, i, 0)
		case seen&(1<<k) != 0:
			return false // a duplicate key: the last one wins, json's way
		case k < envelopeStrings: // its content is its value
			if j, ok = skipString(b, i, true); ok {
				*fields[k] = b[i+1 : j-1]
			}
		default:
			if j, ok = skipValue(b, i, 0); ok {
				*fields[k] = b[i:j]
			}
		}
		seen |= 1 << k
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// strClass sorts the bytes of a string literal's content: 2 for
// printable ASCII other than '"' and '\\', which a plain literal holds
// as its own value; 1 for the bytes at or above 0x80, which only a
// non-plain literal may hold; 0 for the rest, which skipString's
// switch decides on.
var strClass = func() (t [256]uint8) {
	for c := 0x20; c < 0x80; c++ {
		if c != '"' && c != '\\' {
			t[c] = 2
		}
	}
	for c := 0x80; c < 0x100; c++ {
		t[c] = 1
	}
	return t
}()

// skipString steps over the string literal at b[i:] and returns the
// index past its closing quote. With plain set it vouches only for a
// literal whose content is its decoded value: ASCII, no escapes.
func skipString(b []byte, i int, plain bool) (end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	run := uint8(0) // a byte of a class above run needs no decision
	if plain {
		run = 1
	}
	for i++; i < len(b); i++ {
		for i < len(b) && strClass[b[i]] > run {
			i++
		}
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20 || plain && (c == '\\' || c >= 0x80):
			return 0, false
		case c == '\\':
			i++
			if i == len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return 0, false
				}
				i += 4
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

// skipValue steps over the JSON value at b[i:] and returns the index
// past it; ok is false unless the value is well-formed JSON.
func skipValue(b []byte, i, depth int) (end int, ok bool) {
	if i >= len(b) {
		return 0, false
	}
	switch c := b[i]; {
	case c == '"':
		return skipString(b, i, false)
	case c == '{' || c == '[':
		if depth == maxScanDepth {
			return 0, false
		}
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == closer {
			return i + 1, true
		}
		for {
			if c == '{' {
				if i, ok = skipString(b, i, false); !ok {
					return 0, false
				}
				i = skipSpace(b, i)
				if i == len(b) || b[i] != ':' {
					return 0, false
				}
				i = skipSpace(b, i+1)
			}
			if i, ok = skipValue(b, i, depth+1); !ok {
				return 0, false
			}
			i = skipSpace(b, i)
			if i == len(b) || b[i] != closer && b[i] != ',' {
				return 0, false
			}
			if b[i] == closer {
				return i + 1, true
			}
			i = skipSpace(b, i+1)
		}
	case c == 't' || c == 'f' || c == 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
				return i + len(lit), true
			}
		}
	case c == '-' || isDigit(c):
		return skipNumber(b, i)
	}
	return 0, false
}

// skipNumber steps over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func skipNumber(b []byte, i int) (end int, ok bool) {
	if b[i] == '-' {
		i++
	}
	j := skipDigits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return 0, false
	}
	if i = j; i < len(b) && b[i] == '.' {
		if j = skipDigits(b, i+1); j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = skipDigits(b, i); j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
