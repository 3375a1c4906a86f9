package tracestore

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkTrace(id uint64) *Trace {
	at := time.Date(2016, 12, 12, 10, 0, 0, int(id)*1e6, time.UTC)
	return &Trace{
		ID: id, Kind: "operational", OffendingAPI: "POST /v2.1/servers",
		FaultSeq: 100 + id, FaultTime: at, DetectedAt: at.Add(50 * time.Millisecond),
		Window: Window{Alpha: 768, Events: 768, FaultIndex: 384, FirstSeq: 1, LastSeq: 768},
		Growth: []GrowthStep{{Beta: 76, Lo: 346, Hi: 423, Pattern: 40, Matched: []string{"op-a"}}},
		Candidates: []Candidate{
			{Name: "op-a", FPLen: 7, Truncated: true, Matched: true, Score: 1, MandatoryHit: 7, MandatoryTotal: 7},
			{Name: "op-b", FPLen: 5, Truncated: true, Matched: false, Score: 0.4, MandatoryHit: 2,
				MandatoryTotal: 5, Reason: "offending symbol POST /v2.1/servers absent from the context buffer"},
		},
		Spans: []Span{
			{ID: 0, Parent: -1, API: "POST /v2.1/servers", Kind: "REST", Node: "ctl-1",
				StartSeq: 99, EndSeq: 100 + id, Start: at.Add(-12 * time.Millisecond),
				Duration: 12 * time.Millisecond, Status: 500, Fault: true},
			{ID: 1, Parent: 0, API: "compute.run_instance", Kind: "RPC", Node: "cmp-1",
				StartSeq: 99, EndSeq: 100, Start: at.Add(-10 * time.Millisecond),
				Duration: 5 * time.Millisecond},
		},
		Matched: []string{"op-a"}, Beta: 76, Precision: 0.99,
	}
}

func TestStorePutGetEvict(t *testing.T) {
	s := New(2)
	if s.Cap() != 2 {
		t.Fatalf("Cap() = %d, want 2", s.Cap())
	}
	// Put numbers traces densely from 1, whatever ID they arrive with.
	for i, id := range []uint64{16, 32, 48} {
		tr := mkTrace(id)
		if got := s.Put(tr); got != uint64(i+1) || tr.ID != got {
			t.Fatalf("Put #%d = %d (trace ID %d), want %d", i+1, got, tr.ID, i+1)
		}
	}
	if s.Get(1) != nil {
		t.Error("oldest trace in the full store should have been evicted")
	}
	if s.Get(2) == nil || s.Get(3) == nil {
		t.Error("newer traces must survive eviction")
	}
	if s.Get(0) != nil || s.Get(4) != nil {
		t.Error("IDs outside 1..Stored() must not resolve")
	}
	if s.Evicted() != 1 {
		t.Errorf("Evicted() = %d, want 1 (eviction must be counted, never silent)", s.Evicted())
	}
	if s.Stored() != 3 {
		t.Errorf("Stored() = %d, want 3", s.Stored())
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d, want 2", s.Len())
	}
}

// TestStoreHoldsExactCap: the store holds exactly the capacity it is
// given, evicting oldest first and counting every eviction.
func TestStoreHoldsExactCap(t *testing.T) {
	for _, cap := range []int{10, 100} {
		s := New(cap)
		n := cap + cap/2 + 3
		for i := 0; i < n; i++ {
			s.Put(mkTrace(0))
		}
		if s.Len() != cap || s.Cap() != cap {
			t.Errorf("New(%d): Len() = %d, Cap() = %d after %d puts, want %d", cap, s.Len(), s.Cap(), n, cap)
		}
		if s.Evicted() != uint64(n-cap) {
			t.Errorf("New(%d): Evicted() = %d, want %d", cap, s.Evicted(), n-cap)
		}
		for id := uint64(1); id <= uint64(n); id++ {
			if resident := s.Get(id) != nil; resident != (id > uint64(n-cap)) {
				t.Errorf("New(%d): trace %d resident = %v, want the newest %d only", cap, id, resident, cap)
			}
		}
	}
}

func TestStoreIDsSorted(t *testing.T) {
	s := New(3)
	for _, seq := range []uint64{7, 3, 21, 1, 14} {
		s.Put(mkTrace(seq))
	}
	// 7 and 3 were evicted; the rest are resident in Put order.
	want := []uint64{21, 1, 14}
	all := s.All()
	if len(all) != len(want) {
		t.Fatalf("All() holds %d traces, want %d", len(all), len(want))
	}
	for i, tr := range all {
		if tr.ID != uint64(i+3) || tr.FaultSeq != 100+want[i] {
			t.Fatalf("All()[%d] = trace %d (fault seq %d), want trace %d (fault seq %d)",
				i, tr.ID, tr.FaultSeq, i+3, 100+want[i])
		}
	}
}

// TestStoreConcurrent: concurrent Puts get the distinct IDs 1..n and
// every one is accounted resident or evicted.
func TestStoreConcurrent(t *testing.T) {
	const goroutines, each = 8, 100
	s := New(128)
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := s.Put(mkTrace(0))
				ids[g] = append(ids[g], id)
				s.Get(id)
				if i%10 == 0 {
					s.All()
				}
			}
		}(g)
	}
	wg.Wait()
	seen := make([]bool, goroutines*each+1)
	for _, gids := range ids {
		for _, id := range gids {
			if id == 0 || id > goroutines*each || seen[id] {
				t.Fatalf("Put returned ID %d twice or outside 1..%d", id, goroutines*each)
			}
			seen[id] = true
		}
	}
	if s.Stored() != goroutines*each {
		t.Errorf("Stored() = %d, want %d", s.Stored(), goroutines*each)
	}
	if got := uint64(s.Len()) + s.Evicted(); got != s.Stored() {
		t.Errorf("Len()+Evicted() = %d, want Stored() = %d", got, s.Stored())
	}
}

// TestHandlerDuringPut serves /traces in every format while another
// goroutine keeps storing; run under -race.
func TestHandlerDuringPut(t *testing.T) {
	s := New(16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Put(mkTrace(uint64(i)))
		}
	}()
	h := s.Handler()
	for _, path := range []string{"/traces", "/traces?format=ndjson", "/traces?format=chrome", "/traces/1"} {
		for i := 0; i < 10; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 && rec.Code != 404 {
				t.Fatalf("%s: code %d", path, rec.Code)
			}
		}
	}
	<-done
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	if !strings.Contains(rec.Body.String(), "# 16 evidence traces resident (stored 200, evicted 184, cap 16)") {
		t.Errorf("/traces after the puts:\n%s", rec.Body.String())
	}
}

func TestWriteNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, []*Trace{mkTrace(1), mkTrace(2)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d, want 2", len(lines))
	}
	var rt Trace
	if err := json.Unmarshal([]byte(lines[0]), &rt); err != nil {
		t.Fatalf("NDJSON line does not round-trip: %v", err)
	}
	if rt.ID != 1 || len(rt.Candidates) != 2 || rt.Candidates[1].Reason == "" {
		t.Errorf("round-tripped trace lost fields: %+v", rt)
	}
}

func TestWriteChromeTraceLoads(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Trace{mkTrace(1)}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var haveComplete, haveMeta, haveInstant bool
	for _, ev := range out.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("trace event missing required key %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			haveComplete = true
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		case "M":
			haveMeta = true
		case "i":
			haveInstant = true
		}
	}
	if !haveComplete || !haveMeta || !haveInstant {
		t.Errorf("export should contain complete, metadata, and instant events (got X=%v M=%v i=%v)",
			haveComplete, haveMeta, haveInstant)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	s := New(0)
	for i := 0; i < 3; i++ {
		s.Put(mkTrace(3))
	}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/traces")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "trace 3") {
		t.Errorf("/traces index: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("/traces Content-Type = %q", ct)
	}

	rec = get("/traces/3")
	body := rec.Body.String()
	if rec.Code != 200 {
		t.Fatalf("/traces/3: code=%d", rec.Code)
	}
	for _, want := range []string{"operational fault", "context-buffer growth", "candidates",
		"span tree", "absent from the context buffer", "FAULT"} {
		if !strings.Contains(body, want) {
			t.Errorf("/traces/3 text missing %q in:\n%s", want, body)
		}
	}

	rec = get("/traces/3?format=json")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	var arr []Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &arr); err != nil || len(arr) != 1 {
		t.Errorf("json detail: err=%v n=%d", err, len(arr))
	}

	rec = get("/traces/3?format=chrome")
	if !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Error("chrome detail missing traceEvents")
	}

	if rec = get("/traces/99"); rec.Code != 404 {
		t.Errorf("missing trace: code=%d, want 404", rec.Code)
	}
	if rec = get("/traces/bogus"); rec.Code != 400 {
		t.Errorf("bad id: code=%d, want 400", rec.Code)
	}
}
