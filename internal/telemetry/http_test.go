package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newPopulatedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("core.events_ingested").Add(42)
	r.Gauge("transport.active_connections").Set(3)
	h := r.Histogram("core.window_match")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	return r
}

func TestHandlerText(t *testing.T) {
	r := newPopulatedRegistry()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"core.events_ingested 42",
		"transport.active_connections 3",
		"core.window_match.count 100",
		"core.window_match.p50_ms",
		"core.window_match.p99_ms",
		"core.window_match.max_ms 100.000",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("text metrics missing %q; body:\n%s", want, body)
		}
	}
	// Flat text must be sorted line-by-line for diffability.
	lines := strings.Split(strings.TrimSpace(body), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("output not sorted: %q after %q", lines[i], lines[i-1])
		}
	}
}

// TestHandlerTextContentType is the regression test for the /metrics
// text view's Content-Type: browsers and curl pipelines must see
// text/plain with an explicit charset, never Go's sniffed default.
func TestHandlerTextContentType(t *testing.T) {
	r := newPopulatedRegistry()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("text /metrics Content-Type = %q, want %q", ct, "text/plain; charset=utf-8")
	}
}

// TestMuxMounts verifies extra handlers (the /traces endpoints in
// production) attach to the introspection mux without disturbing the
// built-in routes.
func TestMuxMounts(t *testing.T) {
	r := newPopulatedRegistry()
	mux := NewMux(r, Mount{Pattern: "/extra", Handler: http.HandlerFunc(
		func(w http.ResponseWriter, req *http.Request) { io.WriteString(w, "mounted") })})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/extra", nil))
	if rec.Code != 200 || rec.Body.String() != "mounted" {
		t.Fatalf("/extra: code=%d body=%q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "core.events_ingested 42") {
		t.Fatalf("/metrics after mounting: code=%d", rec.Code)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := newPopulatedRegistry()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding JSON metrics: %v", err)
	}
	if snap.Counters["core.events_ingested"] != 42 {
		t.Fatalf("counter = %d, want 42", snap.Counters["core.events_ingested"])
	}
	h := snap.Histograms["core.window_match"]
	if h.Count != 100 || h.P50Ms < 40 || h.P50Ms > 60 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
}

// TestServeLive boots the real endpoint on a free port and checks
// /metrics, the JSON view, and the pprof index all answer.
func TestServeLive(t *testing.T) {
	r := newPopulatedRegistry()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "core.events_ingested 42") {
		t.Fatalf("/metrics: code %d, body %q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, "\"counters\"") {
		t.Fatalf("/metrics?format=json: code %d, body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars: code %d", code)
	}
	// Serve registered the process funcs on the registry it was given.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "process.goroutines") {
		t.Fatalf("/metrics missing process funcs: code %d, body %q", code, body)
	}
}

func TestHealthzReadiness(t *testing.T) {
	mux := NewMux(newPopulatedRegistry())
	get := func(path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	SetReady(false)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("before SetReady: code=%d body=%q, want 503 starting", code, body)
	}
	SetReady(true)
	defer SetReady(false)
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("after SetReady: code=%d body=%q, want 200 ok", code, body)
	}
	code, body := get("/healthz?format=json")
	if code != http.StatusOK {
		t.Fatalf("json healthz code = %d", code)
	}
	var parsed struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("healthz json: %v (%q)", err, body)
	}
	if parsed.Status != "ok" || !parsed.Ready {
		t.Fatalf("healthz json = %+v", parsed)
	}
}

func TestHealthzNotReadyReason(t *testing.T) {
	mux := NewMux(newPopulatedRegistry())
	get := func(path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	SetReady(false)
	SetNotReadyReason("recovering: wal replay 3/12")
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "recovering: wal replay 3/12") {
		t.Fatalf("reason not served: code=%d body=%q", code, body)
	}
	// The reason flows into the JSON answer too.
	if _, body := get("/healthz?format=json"); !strings.Contains(body, "wal replay 3/12") {
		t.Fatalf("json body missing reason: %q", body)
	}
	// Going ready clears the reason: a later drain shows plain "starting".
	SetReady(true)
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("ready after reason: code=%d body=%q", code, body)
	}
	SetReady(false)
	defer SetReady(false)
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("reason leaked past SetReady(true): code=%d body=%q", code, body)
	}
}
