package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry/export"
)

func TestParseLineRoundTrip(t *testing.T) {
	// Everything the export encoder emits must parse back exactly.
	cases := []export.Point{
		{
			Name:   "core.events_ingested",
			Tags:   []export.Tag{{Key: "host", Value: "node-a"}, {Key: "proc", Value: "gretel"}},
			Fields: []export.Field{{Key: "delta", Value: 128, Integer: true}, {Key: "total", Value: 4096, Integer: true}},
			TimeNS: 1700000000000000000,
		},
		{
			Name:   "odd metric,name",
			Tags:   []export.Tag{{Key: "ta g", Value: "va,lue"}, {Key: "k=ey", Value: "v=al"}},
			Fields: []export.Field{{Key: "fie ld", Value: 1.5}, {Key: "f,k", Value: -3, Integer: true}},
			TimeNS: 42,
		},
		{
			Name:   "detect.score",
			Fields: []export.Field{{Key: "value", Value: 0.30000000000000004}, {Key: "neg", Value: -12, Integer: true}},
			TimeNS: -5,
		},
	}
	for _, c := range cases {
		enc, err := export.AppendPoint(nil, &c)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSuffix(string(enc), "\n")
		p, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if p.TimeNS != c.TimeNS {
			t.Fatalf("timestamp %d != %d for %q", p.TimeNS, c.TimeNS, line)
		}
		if len(p.Fields) != len(c.Fields) {
			t.Fatalf("field count %d != %d for %q (%v)", len(p.Fields), len(c.Fields), line, p.Fields)
		}
		for _, f := range c.Fields {
			got, ok := p.Fields[f.Key]
			if !ok {
				t.Fatalf("field %q missing after round trip of %q (%v)", f.Key, line, p.Fields)
			}
			if got != f.Value {
				t.Fatalf("field %q = %v, want %v", f.Key, got, f.Value)
			}
		}
	}
}

func TestParseLineCanonicalizesTagOrder(t *testing.T) {
	a, err := ParseLine(`m,b=2,a=1 v=1i 5`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseLine(`m,a=1,b=2 v=1i 5`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Series != b.Series || a.Series != "m,a=1,b=2" {
		t.Fatalf("series keys not canonical: %q vs %q", a.Series, b.Series)
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"nofields 123",
		"m v= 123",
		`m v="str" 123`,
		"m v=1i",          // no timestamp
		"m v=1i notanum",  // bad timestamp
		",t=1 v=1i 5",     // empty measurement
		"m,badtag v=1i 5", // tag without =
		"m v=12.3.4i 5",   // bad int
		"m =1i 5",         // empty field key
	} {
		if _, err := ParseLine(bad); err == nil {
			t.Fatalf("ParseLine(%q) accepted, want error", bad)
		}
	}
}

func TestStoreWriteQueryRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PartitionDur: time.Hour, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		batch := fmt.Sprintf("core.events,host=a delta=%di,total=%di %d\nwal.appended,host=a delta=1i %d\n",
			i, i*10, int64(i)*1e9, int64(i)*1e9)
		acc, rej, err := s.Write([]byte(batch), now)
		if err != nil || acc != 2 || rej != 0 {
			t.Fatalf("write %d: acc=%d rej=%d err=%v", i, acc, rej, err)
		}
	}

	pts := s.Query("core.events,host=a", 0, 0)
	if len(pts) != 10 {
		t.Fatalf("query returned %d points, want 10", len(pts))
	}
	// Range query: t in [2s, 5s].
	pts = s.Query("core.events,host=a", 2e9, 5e9)
	if len(pts) != 4 {
		t.Fatalf("range query returned %d points, want 4", len(pts))
	}
	if pts[0].TimeNS != 2e9 || pts[3].TimeNS != 5e9 {
		t.Fatalf("range bounds wrong: %d..%d", pts[0].TimeNS, pts[3].TimeNS)
	}
	if pts[0].Fields["delta"] != 2 {
		t.Fatalf("fields wrong: %v", pts[0].Fields)
	}
	if got := s.Query("no.such.series", 0, 0); len(got) != 0 {
		t.Fatalf("unknown series returned %d points", len(got))
	}

	infos := s.Series()
	if len(infos) != 2 {
		t.Fatalf("series list %v, want 2 entries", infos)
	}
	if infos[0].Series != "core.events,host=a" || infos[0].Points != 10 {
		t.Fatalf("series info wrong: %+v", infos[0])
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must come back from the segments.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 20 || st.Points != 20 {
		t.Fatalf("recovery stats %+v, want 20 points", st)
	}
	pts = s2.Query("wal.appended,host=a", 0, 0)
	if len(pts) != 10 {
		t.Fatalf("post-recovery query returned %d points, want 10", len(pts))
	}
	// Writes continue after recovery without segment-name collisions.
	if _, _, err := s2.Write([]byte("core.events,host=a delta=99i 99000000000\n"), now); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Write([]byte("m,h=a v=1i 1\nm,h=a v=2i 2\n"), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage at the end of the segment.
	names := segmentFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("segments: %v", names)
	}
	f, err := os.OpenFile(names[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xF5, 0x9E, 'P', 0, 1, 2, 3}) // torn header
	f.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 2 {
		t.Fatalf("recovered %d points, want 2", st.Recovered)
	}
	if st.SkippedBytes == 0 {
		t.Fatal("torn tail not counted in SkippedBytes")
	}
	// The store keeps working after recovering a torn segment.
	if _, _, err := s2.Write([]byte("m,h=a v=3i 3\n"), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s2.Query("m,h=a", 0, 0); len(got) != 3 {
		t.Fatalf("post-tear query returned %d points, want 3", len(got))
	}
}

func TestStoreReopenAfterTornFirstRecord(t *testing.T) {
	// A crash after a segment is created but before its first record
	// lands leaves a trailing recordless segment named for the next
	// sequence — exactly what the next Write's exclusive create uses.
	// Open must drop it, or every Write after reopen fails EEXIST.
	for _, tornBytes := range [][]byte{nil, {0xF5, 0x9E, 'P', 0, 1, 2}} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Write([]byte("m,h=a v=1i 1\n"), time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate the crash: a segment at the next sequence holding no
		// intact record (empty, or a torn first header).
		torn := filepath.Join(dir, seglog.SegmentName(segPrefix, s.log.LastSeq()+1))
		if err := os.WriteFile(torn, tornBytes, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(torn); !os.IsNotExist(err) {
			t.Fatalf("recordless segment %s survived reopen (stat err %v)", torn, err)
		}
		if st := s2.Stats(); st.Segments != 1 || st.Recovered != 1 {
			t.Fatalf("stats after dropping recordless segment: %+v", st)
		}
		if _, _, err := s2.Write([]byte("m,h=a v=2i 2\n"), time.Unix(0, 0)); err != nil {
			t.Fatalf("write after reopen with %d torn bytes: %v", len(tornBytes), err)
		}
		if got := s2.Query("m,h=a", 0, 0); len(got) != 2 {
			t.Fatalf("query returned %d points, want 2", len(got))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// failNext is a segment writer that fails the next write when armed —
// a transient ENOSPC/EIO that lets nothing through.
type failNext struct {
	w     io.Writer
	armed *bool
}

func (f failNext) Write(p []byte) (int, error) {
	if *f.armed {
		*f.armed = false
		return 0, errors.New("injected: no space left on device")
	}
	return f.w.Write(p)
}

func TestStoreRecoversFromWriteError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PartitionDur: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// The store has no fault-injection option; the test swaps in a
	// segment log that differs only in its writer.
	var fail bool
	o := segOptions(s.opts)
	o.WrapWriter = func(w io.Writer) io.Writer { return failNext{w, &fail} }
	if s.log, err = seglog.Open(o); err != nil {
		t.Fatal(err)
	}
	write := func(v int, at time.Time, wantErr bool) {
		t.Helper()
		_, _, err := s.Write([]byte(fmt.Sprintf("m,h=a v=%di %d\n", v, v)), at)
		if (err != nil) != wantErr {
			t.Fatalf("write v=%d: err=%v, want error %v", v, err, wantErr)
		}
	}
	t0, t1 := time.Unix(0, 0), time.Unix(60, 0)

	// Mid-segment failure: the segment is abandoned with its record kept,
	// and the store does not return the same error forever.
	write(1, t0, false)
	fail = true
	write(2, t0, true)
	write(3, t0, false)

	// First-write failure: the new partition's segment never held a
	// record and must be unlinked, or the next exclusive create of the
	// same name fails EEXIST.
	fail = true
	write(4, t1, true)
	write(5, t1, false)
	if got := s.log.Stats().Abandoned; got != 2 {
		t.Fatalf("abandoned %d segments, want 2", got)
	}
	if names := segmentFiles(t, dir); len(names) != 3 {
		t.Fatalf("segments on disk %v, want 3 (the recordless one unlinked)", names)
	}

	// Everything durable must survive a reopen, and the abandoned
	// segments must not confuse recovery.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Query("m,h=a", 0, 0); len(got) != 3 {
		t.Fatalf("recovered %d points, want 3 (v=1, v=3, v=5)", len(got))
	}
}

// TestOpenFailsOnUnopenableSegment: a segment Open cannot read is an
// error. It is not skipped, and above all not unlinked as "recordless" —
// it may hold the newest intact records. A symlink loop under the next
// segment's name cannot be opened whatever the test's privileges.
func TestOpenFailsOnUnopenableSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Write([]byte("m,h=a v=1i 1\n"), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	loop := filepath.Join(dir, seglog.SegmentName(segPrefix, 2))
	if err := os.Symlink(loop, loop); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(Options{Dir: dir}); err == nil {
		s2.Close()
		t.Error("Open succeeded over a segment it could not read")
	}
	if _, err := os.Lstat(loop); err != nil {
		t.Fatalf("Open unlinked a segment it never read: %v", err)
	}
}

func TestStorePartitionRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PartitionDur: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Write([]byte("m v=1i 1\n"), time.Unix(30, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Write([]byte("m v=2i 2\n"), time.Unix(31, 0)); err != nil {
		t.Fatal(err)
	}
	// Crossing the minute boundary must rotate to a new segment.
	if _, _, err := s.Write([]byte("m v=3i 3\n"), time.Unix(61, 0)); err != nil {
		t.Fatal(err)
	}
	if names := segmentFiles(t, dir); len(names) != 2 {
		t.Fatalf("expected 2 segments after partition rotation, got %v", names)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	for _, m := range s.Mounts() {
		mux.Handle(m.Pattern, m.Handler)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("core.x,host=a delta=1i 1000\ncore.x,host=a delta=2i 2000\n"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	// Partial batch: one bad line rejected, rest accepted.
	if resp := post("garbage line\ncore.x,host=a delta=3i 3000\n"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("partial write status %d", resp.StatusCode)
	} else if resp.Header.Get("X-Tsdb-Rejected") != "1" {
		t.Fatalf("rejected header %q, want 1", resp.Header.Get("X-Tsdb-Rejected"))
	}
	// Fully bad batch: 400.
	if resp := post("garbage\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad write status %d, want 400", resp.StatusCode)
	}
	// GET on /write: 405.
	if resp, _ := http.Get(srv.URL + "/write"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /write status %d", resp.StatusCode)
	}

	var qr struct {
		Series string  `json:"series"`
		Count  int     `json:"count"`
		Points []Point `json:"points"`
	}
	getJSON(t, srv.URL+"/query?series=core.x,host=a&from=1500&to=3000", &qr)
	if qr.Count != 2 || len(qr.Points) != 2 {
		t.Fatalf("query result %+v, want 2 points", qr)
	}
	if qr.Points[0].TimeNS != 2000 || qr.Points[0].Fields["delta"] != 2 {
		t.Fatalf("query point wrong: %+v", qr.Points[0])
	}

	var infos []SeriesInfo
	getJSON(t, srv.URL+"/series", &infos)
	if len(infos) != 1 || infos[0].Points != 3 {
		t.Fatalf("series listing wrong: %+v", infos)
	}

	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Written != 3 || st.Rejected != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// segmentFiles lists the store's segment files, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
