package export

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current encoder output")

// TestAppendPointGolden holds the encoder to exact bytes: tag/field
// escaping, deterministic ordering of unsorted inputs, int vs float
// forms, and the one-trailing-newline invariant.
func TestAppendPointGolden(t *testing.T) {
	points := []Point{
		{
			Name: "core.events_ingested",
			Tags: []Tag{{"host", "node-a"}, {"proc", "gretel"}},
			Fields: []Field{
				{Key: "delta", Value: 128, Integer: true},
				{Key: "total", Value: 4096, Integer: true},
			},
			TimeNS: 1700000000000000000,
		},
		{
			// Unsorted tags and fields must come out in key order.
			Name: "transport.frames",
			Tags: []Tag{{"zone", "z1"}, {"host", "node-b"}, {"proc", "agent"}},
			Fields: []Field{
				{Key: "total", Value: 7, Integer: true},
				{Key: "delta", Value: 2, Integer: true},
			},
			TimeNS: 1700000001000000000,
		},
		{
			// Escaping: spaces/commas in measurement; comma/equals/space
			// in tag keys, tag values, and field keys.
			Name: "odd metric,name",
			Tags: []Tag{{"ta g", "va,lue"}, {"k=ey", "v=al"}},
			Fields: []Field{
				{Key: "fie ld", Value: 1.5},
				{Key: "f,k", Value: -3, Integer: true},
			},
			TimeNS: 42,
		},
		{
			// Floats: shortest round-trip form; very small and large.
			Name: "detect.score",
			Fields: []Field{
				{Key: "value", Value: 0.30000000000000004},
				{Key: "tiny", Value: 1e-12},
				{Key: "big", Value: 1.797e+300},
				{Key: "zero", Value: 0},
			},
			TimeNS: 0,
		},
		{
			// NaN/Inf fields are dropped; the rest survive. Control
			// bytes (newline) are rewritten so framing cannot tear.
			Name: "wal.bytes\nwritten",
			Tags: []Tag{{"seg", "wal-0001"}},
			Fields: []Field{
				{Key: "nan", Value: math.NaN()},
				{Key: "ok", Value: 9, Integer: true},
				{Key: "inf", Value: math.Inf(1)},
			},
			TimeNS: -5,
		},
		{
			// Empty tag keys/values are skipped; trailing backslash in a
			// tag value is rewritten (it would escape the delimiter).
			Name: "tracestore.spans",
			Tags: []Tag{{"", "x"}, {"y", ""}, {"path", `C:\tmp\`}},
			Fields: []Field{
				{Key: "count", Value: 3, Integer: true},
			},
			TimeNS: 1700000002123456789,
		},
	}

	var got []byte
	for i := range points {
		var err error
		got, err = AppendPoint(got, &points[i])
		if err != nil {
			t.Fatalf("AppendPoint(%q): %v", points[i].Name, err)
		}
	}

	goldenPath := filepath.Join("testdata", "lineproto.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder output diverged from golden file\n got:\n%s\nwant:\n%s", got, want)
	}

	// Trailing-newline invariant: every point ends its own line, the
	// buffer ends in exactly one '\n', and no point tore into two lines.
	if got[len(got)-1] != '\n' {
		t.Fatal("output does not end in newline")
	}
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) != len(points) {
		t.Fatalf("got %d lines for %d points (framing torn?)", len(lines), len(points))
	}
	for _, ln := range lines {
		if len(ln) == 0 {
			t.Fatal("empty line in output")
		}
	}
}

func TestAppendPointErrors(t *testing.T) {
	dst := []byte("keep")
	if out, err := AppendPoint(dst, &Point{Fields: []Field{{Key: "v", Value: 1}}, TimeNS: 1}); err == nil {
		t.Fatal("expected error for empty measurement name")
	} else if !bytes.Equal(out, dst) {
		t.Fatal("dst modified on error")
	}
	if _, err := AppendPoint(dst, &Point{Name: "m", TimeNS: 1}); err == nil {
		t.Fatal("expected error for no fields")
	}
	if _, err := AppendPoint(dst, &Point{
		Name:   "m",
		Fields: []Field{{Key: "v", Value: math.NaN()}},
		TimeNS: 1,
	}); err == nil {
		t.Fatal("expected error when all fields are unrepresentable")
	}
}

func TestAppendPointDeterministic(t *testing.T) {
	mk := func() Point {
		return Point{
			Name:   "m",
			Tags:   []Tag{{"b", "2"}, {"a", "1"}, {"c", "3"}},
			Fields: []Field{{Key: "z", Value: 1, Integer: true}, {Key: "a", Value: 2.5}},
			TimeNS: 99,
		}
	}
	p1, p2 := mk(), mk()
	out1, err1 := AppendPoint(nil, &p1)
	out2, err2 := AppendPoint(nil, &p2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("non-deterministic encoding:\n%s\n%s", out1, out2)
	}
	const want = "m,a=1,b=2,c=3 a=2.5,z=1i 99\n"
	if string(out1) != want {
		t.Fatalf("got %q want %q", out1, want)
	}
}

// TestHostTagFallbackGolden pins the empty-hostname path end to end: a
// failed or empty os.Hostname must become host=unknown, because the
// encoder silently drops tags with empty values — the golden shows both
// the dropped-tag hazard and the fallback that avoids it.
func TestHostTagFallbackGolden(t *testing.T) {
	cases := []struct {
		host string
		err  error
		want string
	}{
		{"node-7", nil, "node-7"},
		{"", nil, "unknown"},
		{"", errors.New("hostname: lookup failed"), "unknown"},
		{"stale-name", errors.New("hostname: lookup failed"), "unknown"},
	}
	for _, tc := range cases {
		if got := hostTag(tc.host, tc.err); got != tc.want {
			t.Errorf("hostTag(%q, %v) = %q, want %q", tc.host, tc.err, got, tc.want)
		}
	}

	fields := []Field{{Key: "delta", Value: 1, Integer: true}}
	var buf []byte
	var err error
	// The hazard: an empty host value changes the series key — the tag
	// vanishes instead of encoding as host=.
	buf, err = AppendPoint(buf, &Point{
		Name:   "core.reports",
		Tags:   []Tag{{"host", ""}, {"proc", "gretel"}},
		Fields: fields,
		TimeNS: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf, []byte("host")) {
		t.Fatalf("encoder kept an empty host tag: %q", buf)
	}
	// The fix: the fallback keeps the series key stable.
	buf, err = AppendPoint(buf, &Point{
		Name:   "core.reports",
		Tags:   []Tag{{"host", hostTag("", errors.New("no hostname"))}, {"proc", "gretel"}},
		Fields: fields,
		TimeNS: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "hosttag.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", buf, want)
	}
}
