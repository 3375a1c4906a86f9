// Live introspection: /metrics in flat text (grep-friendly "name value"
// lines) or JSON (?format=json), the expvar dump on /debug/vars, and
// net/http/pprof on /debug/pprof/ for CPU and heap profiles of a running
// analyzer or agent — the run-time half of keeping GRETEL measurably
// lightweight.

package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// WriteText renders the snapshot as sorted "name value" lines.
// Histograms expand into .count/.mean_ms/.p50_ms/.p90_ms/.p99_ms/.max_ms
// lines so the whole dump stays flat and diffable.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Funcs)+6*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Funcs {
		lines = append(lines, fmt.Sprintf("%s %g", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", name, h.Count),
			fmt.Sprintf("%s.mean_ms %.3f", name, h.MeanMs),
			fmt.Sprintf("%s.p50_ms %.3f", name, h.P50Ms),
			fmt.Sprintf("%s.p90_ms %.3f", name, h.P90Ms),
			fmt.Sprintf("%s.p99_ms %.3f", name, h.P99Ms),
			fmt.Sprintf("%s.max_ms %.3f", name, h.MaxMs))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry snapshot on any path: flat text by
// default, JSON with ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
	})
}

// ready is the process-wide readiness bit behind /healthz. It starts
// false: a freshly exec'd analyzer that is still loading its fingerprint
// library or binding its listener answers 503, and flips to 200 the
// moment the main loop is live. Harnesses (the bench runner, smoke
// scripts, future federation coordinators) poll /healthz instead of
// sleeping an arbitrary grace period.
var ready atomic.Bool

// notReadyReason, when non-empty, replaces the generic "starting" body
// while the readiness bit is down — e.g. "recovering: wal replay 3/12"
// during boot-time WAL recovery, so a poller can tell a long replay
// from a hung process.
var notReadyReason atomic.Value // string

// SetReady flips the process readiness bit served by /healthz. Going
// ready clears any not-ready reason.
func SetReady(ok bool) {
	ready.Store(ok)
	if ok {
		notReadyReason.Store("")
	}
}

// SetNotReadyReason records why the process is not ready yet; /healthz
// serves it as the 503 body until SetReady(true). Call it freely while
// booting (e.g. per replayed WAL segment) — it is just an atomic store.
func SetNotReadyReason(reason string) { notReadyReason.Store(reason) }

// healthz answers 200 "ok" once SetReady(true) has been called and
// 503 before (and after SetReady(false), e.g. during drain) — with the
// SetNotReadyReason detail when one is set, "starting" otherwise. The
// body is flat text like /metrics; ?format=json wraps the same answer
// for machine consumers.
func healthz(w http.ResponseWriter, req *http.Request) {
	ok := ready.Load()
	status, body := http.StatusOK, "ok"
	if !ok {
		status, body = http.StatusServiceUnavailable, "starting"
		if r, _ := notReadyReason.Load().(string); r != "" {
			body = r
		}
	}
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]any{"status": body, "ready": ok})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, body)
}

// Mount attaches an extra handler to the introspection mux — how
// subsystems with their own live views (e.g. the evidence-trace store's
// /traces endpoints) join the telemetry surface without this package
// importing them.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// NewMux builds the introspection mux: /metrics (the registry),
// /healthz (readiness), /debug/vars (expvar), /debug/pprof/
// (profiles), plus any extra mounts. The explicit pprof registrations mirror what net/http/pprof
// does on http.DefaultServeMux, which we deliberately avoid mutating.
func NewMux(r *Registry, mounts ...Mount) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
	}
	return mux
}

// publishOnce guards the expvar names, which panic on double Publish.
var (
	publishMu   sync.Mutex
	publishSeen = map[*Registry]bool{}
)

func publishExpvar(r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if publishSeen[r] {
		return
	}
	publishSeen[r] = true
	name := "gretel"
	if r != std {
		name = fmt.Sprintf("gretel.%p", r)
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Serve starts the introspection endpoint on addr (e.g. ":6167"; ":0"
// picks a free port) for the given registry (nil means the default),
// with any extra mounts attached to the mux. It registers
// process.uptime_seconds and process.goroutines, publishes the registry
// through expvar, and serves until the process exits or the returned
// shutdown function is called. Returns the bound address.
func Serve(addr string, r *Registry, mounts ...Mount) (string, func() error, error) {
	if r == nil {
		r = std
	}
	start := time.Now()
	r.RegisterFunc("process.uptime_seconds", func() float64 {
		return time.Since(start).Seconds()
	})
	r.RegisterFunc("process.goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	publishExpvar(r)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(r, mounts...)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
