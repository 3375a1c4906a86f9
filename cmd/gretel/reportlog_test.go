package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gretel/internal/core"
)

// logReport records a synthetic report carrying trace id id.
func logReport(l *ReportLog, id int) {
	rep := &core.Report{TraceID: uint64(id), DetectedAt: time.Now().Add(time.Duration(id) * time.Millisecond)}
	l.Record(rep)
}

func TestReportLogPaging(t *testing.T) {
	l := NewReportLog()
	for i := 1; i <= 5; i++ {
		logReport(l, i)
	}
	page := l.Page(0)
	if page.First != 1 || page.Next != 6 || len(page.Reports) != 5 {
		t.Fatalf("full page: first=%d next=%d n=%d", page.First, page.Next, len(page.Reports))
	}
	for i, e := range page.Reports {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq at %d = %d", i, e.Seq)
		}
	}
	inc := l.Page(3)
	if len(inc.Reports) != 2 || inc.Reports[0].Seq != 4 {
		t.Fatalf("incremental page: %+v", inc.Reports)
	}
	if got := l.Page(99); len(got.Reports) != 0 {
		t.Fatalf("past-end page returned %d entries", len(got.Reports))
	}
}

func TestReportLogEviction(t *testing.T) {
	l := NewReportLog()
	for i := 1; i <= reportLogCap+6; i++ {
		logReport(l, i)
	}
	if n := len(l.Page(0).Reports); n != reportLogCap {
		t.Fatalf("len = %d", n)
	}
	page := l.Page(0)
	if page.First != 7 || page.Next != reportLogCap+7 {
		t.Fatalf("bounds after eviction: first=%d next=%d", page.First, page.Next)
	}
	// A cursor pointing into the evicted range only sees what's retained;
	// the gap is visible as First > since+1.
	stale := l.Page(2)
	if len(stale.Reports) != reportLogCap || stale.Reports[0].Seq != 7 {
		t.Fatalf("stale cursor page: %+v", stale.Reports)
	}
}

func TestReportLogHandler(t *testing.T) {
	l := NewReportLog()
	logReport(l, 1)
	logReport(l, 2)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page LogPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Boot == 0 || len(page.Reports) != 1 || page.Reports[0].Seq != 2 {
		t.Fatalf("page over HTTP: %+v", page)
	}
	if resp, _ := http.Get(srv.URL + "?since=junk"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %d", resp.StatusCode)
	}
}
