package federation_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/federation"
	"gretel/internal/replay"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOneMemberFederationParity is the ISSUE acceptance criterion: a
// federation of one must produce byte-identical report output to a bare
// analyzer over the same stream — same discipline as the detect-worker
// parity tests.
func TestOneMemberFederationParity(t *testing.T) {
	lib := experiments.BenchLibrary()
	stream := experiments.FaultyBenchStream(20000)

	// Bare analyzer: the baseline bytes.
	bare := core.New(lib, core.Config{})
	replay.Drive(bare, stream)
	var baseline bytes.Buffer
	for _, rep := range bare.Reports() {
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		baseline.Write(body)
		baseline.WriteByte('\n')
	}
	if baseline.Len() == 0 {
		t.Fatal("degenerate test: bare analyzer produced no reports")
	}

	// Federated member: identical config, reports captured by a
	// ReportLog and served to a 1-member coordinator.
	log := federation.NewReportLog()
	member := core.New(lib, core.Config{})
	member.OnReport(log.Record)
	replay.Drive(member, stream)

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	mux.Handle("/reports", log.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := federation.NewCoordinator(federation.CoordinatorConfig{
		Members:       []federation.MemberConfig{{Name: "solo", EventAddr: "solo:19000", BaseURL: srv.URL}},
		ProbeInterval: 10 * time.Millisecond,
		PullInterval:  10 * time.Millisecond,
		Window:        20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := len(bare.Reports())
	waitFor(t, "all reports merged", func() bool { return len(c.Merged()) == want })

	rsrv := httptest.NewServer(c.ReportsHandler())
	defer rsrv.Close()
	resp, err := http.Get(rsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if !bytes.Equal(merged, baseline.Bytes()) {
		t.Fatalf("1-member federation output differs from bare analyzer:\nfederated %d bytes, bare %d bytes", len(merged), baseline.Len())
	}
	// Ordering stats must show the degenerate merge was clean.
	if st := c.MergeStats(); st.Dups != 0 {
		t.Fatalf("solo merge saw dups: %+v", st)
	}
}
