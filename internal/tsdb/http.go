// HTTP surface: /write (line protocol in), /query and /series (JSON
// out). Handlers are exposed as telemetry.Mounts so gretel-tsdb serves
// them on the same mux as /metrics and /healthz.

package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
)

// Mounts returns the store's HTTP handlers for telemetry.Serve.
func (s *Store) Mounts() []telemetry.Mount {
	return []telemetry.Mount{
		{Pattern: "/write", Handler: http.HandlerFunc(s.handleWrite)},
		{Pattern: "/query", Handler: http.HandlerFunc(s.handleQuery)},
		{Pattern: "/series", Handler: http.HandlerFunc(s.handleSeries)},
		{Pattern: "/stats", Handler: http.HandlerFunc(s.handleStats)},
	}
}

// handleWrite ingests a line-protocol batch. 204 on success (including
// partial acceptance — rejected lines are counted and reported in the
// X-Tsdb-Rejected header), 400 when nothing in the batch was usable,
// 413 over the record bound.
func (s *Store) handleWrite(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, seglog.MaxRecord+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > seglog.MaxRecord {
		http.Error(w, fmt.Sprintf("batch over the %d-byte bound", seglog.MaxRecord), http.StatusRequestEntityTooLarge)
		return
	}
	accepted, rejected, err := s.Write(body, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if rejected > 0 {
		w.Header().Set("X-Tsdb-Rejected", strconv.Itoa(rejected))
	}
	if accepted == 0 && rejected > 0 {
		http.Error(w, fmt.Sprintf("all %d lines rejected", rejected), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQuery serves /query?series=<key>&from=<ns>&to=<ns> as JSON.
// from/to are optional nanosecond bounds (inclusive).
func (s *Store) handleQuery(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	series := q.Get("series")
	if series == "" {
		http.Error(w, "series parameter is required (see /series for keys)", http.StatusBadRequest)
		return
	}
	from, err := parseNS(q.Get("from"))
	if err != nil {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseNS(q.Get("to"))
	if err != nil {
		http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
		return
	}
	pts := s.Query(series, from, to)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Series string  `json:"series"`
		Count  int     `json:"count"`
		Points []Point `json:"points"`
	}{Series: series, Count: len(pts), Points: pts})
}

// handleSeries lists every series with its point count and time span.
func (s *Store) handleSeries(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Series())
}

// handleStats serves the store accounting.
func (s *Store) handleStats(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// parseNS parses an optional int64 nanosecond parameter (empty = 0).
func parseNS(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseInt(v, 10, 64)
}
