// The report history gretel analyze serves at /reports on its telemetry
// address.

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gretel/internal/core"
)

// LogEntry is one report as the ReportLog serves it: the log's sequence
// number, the fault-arrival timestamp, and the report body exactly as
// it was marshaled.
type LogEntry struct {
	Seq    uint64          `json:"seq"`
	At     time.Time       `json:"at"`
	Report json.RawMessage `json:"report"`
}

// LogPage is the /reports response: a boot id naming this log
// incarnation (a restarted analyzer starts a fresh log and a fresh
// sequence space), the retention bounds, and the entries after the
// requested cursor.
type LogPage struct {
	// Boot identifies this ReportLog incarnation; a change tells a puller
	// to reset its cursor.
	Boot uint64 `json:"boot"`
	// First is the oldest retained sequence number (0 when empty): a
	// puller whose cursor is older has missed evicted reports.
	First uint64 `json:"first"`
	// Next is the sequence number the next report will get.
	Next uint64 `json:"next"`
	// Reports holds the retained entries with Seq > the since cursor.
	Reports []LogEntry `json:"reports"`
}

// ReportLog is the bounded report history an analyzer serves at
// /reports. Record is wired to core.Analyzer.OnReport, so entries are
// appended in fault-arrival order with monotonically increasing
// sequence numbers; a puller reads increments with /reports?since=N.
// Safe for concurrent use.
type ReportLog struct {
	mu      sync.Mutex
	boot    uint64
	ring    []LogEntry
	head, n int
	next    uint64 // next seq to assign
	evicted uint64 // entries pushed out of the ring, for accounting
}

// reportLogCap is how many reports a ReportLog retains.
const reportLogCap = 4096

// NewReportLog builds a log retaining the last reportLogCap reports. The
// boot id is taken from the wall clock so every process incarnation gets
// a distinct one.
func NewReportLog() *ReportLog {
	return &ReportLog{
		boot: uint64(time.Now().UnixNano()),
		ring: make([]LogEntry, reportLogCap),
		next: 1,
	}
}

// Record appends one finished report. Marshal errors cannot happen for
// core.Report (plain data), but are counted as an eviction rather than
// silently skewing the sequence space.
func (l *ReportLog) Record(rep *core.Report) {
	body, err := json.Marshal(rep)
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.next
	l.next++
	if err != nil {
		l.evicted++
		return
	}
	if l.n == len(l.ring) {
		l.head = (l.head + 1) % len(l.ring)
		l.n--
		l.evicted++
	}
	l.ring[(l.head+l.n)%len(l.ring)] = LogEntry{Seq: seq, At: rep.DetectedAt, Report: body}
	l.n++
}

// Page returns the entries with Seq > since, plus the log bounds.
func (l *ReportLog) Page(since uint64) LogPage {
	l.mu.Lock()
	defer l.mu.Unlock()
	page := LogPage{Boot: l.boot, Next: l.next}
	if l.n > 0 {
		page.First = l.ring[l.head].Seq
	}
	for i := 0; i < l.n; i++ {
		e := l.ring[(l.head+i)%len(l.ring)]
		if e.Seq > since {
			page.Reports = append(page.Reports, e)
		}
	}
	return page
}

// Handler serves the log as JSON at GET ?since=N.
func (l *ReportLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var since uint64
		if s := req.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
				return
			}
			since = v
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(l.Page(since))
	})
}
