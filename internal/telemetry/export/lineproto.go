// InfluxDB line-protocol encoder: the format the Sampler emits. One
// point per line:
//
//	measurement[,tag=value...] field=value[,field=value...] <ns timestamp>\n
//
// Encoding is byte-deterministic — tags and fields are emitted in
// ascending key order, floats are formatted with strconv's shortest
// round-trip form, and every point ends in exactly one '\n' — so
// golden-file tests can hold the encoder to exact bytes.
//
// Escaping follows the line-protocol rules: ',', '=', and ' ' are
// backslash-escaped in tag keys, tag values, and field keys; ',' and
// ' ' in measurements. Values are numeric only (int64 with the 'i'
// suffix, float64 bare); NaN and ±Inf are not representable in line
// protocol and such fields are dropped. Control characters (including
// '\n', which would tear the framing) are rewritten to '_'.
package export

import (
	"fmt"
	"math"
	"strconv"
)

// Tag is one key=value dimension of a point's series identity.
type Tag struct {
	Key, Value string
}

// Field is one measured value. Integer selects the line-protocol int64
// form ("42i"); otherwise Value is emitted as a float64.
type Field struct {
	Key     string
	Value   float64
	Integer bool
}

// Point is one measurement at one instant.
type Point struct {
	// Name is the measurement (the metric name: "core.events_ingested").
	Name string
	// Tags identify the series; AppendPoint sorts them in place.
	Tags []Tag
	// Fields hold the values; AppendPoint sorts them in place. At least
	// one representable field is required.
	Fields []Field
	// TimeNS is the timestamp in nanoseconds since the Unix epoch.
	TimeNS int64
}

// ErrNoFields reports a point with no representable field (empty, or
// all values NaN/Inf) — line protocol cannot express it.
var ErrNoFields = fmt.Errorf("export: point has no representable fields")

// AppendPoint encodes p onto dst and returns the extended buffer. Tags
// and fields are sorted in place for deterministic output. A point with
// an empty name or no representable fields returns dst unchanged with
// an error.
func AppendPoint(dst []byte, p *Point) ([]byte, error) {
	if p.Name == "" {
		return dst, fmt.Errorf("export: point has no measurement name")
	}
	representable := 0
	for i := range p.Fields {
		if !math.IsNaN(p.Fields[i].Value) && !math.IsInf(p.Fields[i].Value, 0) {
			representable++
		}
	}
	if representable == 0 {
		return dst, ErrNoFields
	}
	sortTags(p.Tags)
	sortFields(p.Fields)

	dst = appendEscaped(dst, p.Name, escMeasurement)
	for i := range p.Tags {
		if p.Tags[i].Key == "" || p.Tags[i].Value == "" {
			continue // line protocol forbids empty tag keys/values
		}
		dst = append(dst, ',')
		dst = appendEscaped(dst, p.Tags[i].Key, escTagOrKey)
		dst = append(dst, '=')
		dst = appendEscaped(dst, p.Tags[i].Value, escTagOrKey)
	}
	dst = append(dst, ' ')
	first := true
	for i := range p.Fields {
		f := &p.Fields[i]
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = appendEscaped(dst, f.Key, escTagOrKey)
		dst = append(dst, '=')
		if f.Integer {
			dst = strconv.AppendInt(dst, int64(f.Value), 10)
			dst = append(dst, 'i')
		} else {
			dst = strconv.AppendFloat(dst, f.Value, 'g', -1, 64)
		}
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, p.TimeNS, 10)
	return append(dst, '\n'), nil
}

// sortTags and sortFields are insertion sorts: point tag/field sets are
// tiny (≤ 8 entries) and sort.Slice's interface boxing would make every
// point cost allocations — the sampler's steady-state 0-alloc budget
// forbids that.
func sortTags(t []Tag) {
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j].Key < t[j-1].Key; j-- {
			t[j], t[j-1] = t[j-1], t[j]
		}
	}
}

func sortFields(f []Field) {
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j].Key < f[j-1].Key; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
}

// escape classes: which bytes need a backslash in each syntactic slot.
type escClass uint8

const (
	escMeasurement escClass = iota // ',' and ' '
	escTagOrKey                    // ',', '=', ' '
)

// appendEscaped writes s with the class's escapes applied; control
// bytes (which line protocol cannot carry — '\n' would tear framing)
// are rewritten to '_'.
func appendEscaped(dst []byte, s string, class escClass) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c < 0x20 || c == 0x7f:
			dst = append(dst, '_')
			continue
		case c == ',' || c == ' ' || (c == '=' && class == escTagOrKey):
			dst = append(dst, '\\')
		case c == '\\' && i == len(s)-1:
			// A trailing backslash would escape the delimiter that
			// follows; line protocol cannot express it — rewrite.
			dst = append(dst, '_')
			continue
		}
		dst = append(dst, c)
	}
	return dst
}
