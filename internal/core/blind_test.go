package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

// TestEvidenceBlindParity holds verdicts and evidence traces to what a
// deployment can see: explain mode runs twice over the same stream, once
// decorated and once with the ground-truth OpID and OpName zeroed before
// Ingest, and every report must carry the same Candidates, OffendingAPI,
// Beta and Precision both ways and store a byte-identical trace. A
// verdict or trace that changes when only the answer key is removed was
// reading it. Every θ must also lie in [0, 1].
func TestEvidenceBlindParity(t *testing.T) {
	lib := experiments.BenchLibrary()
	run := func(stream []trace.Event, blind bool) ([]*core.Report, *tracestore.Store) {
		a := core.New(lib, core.Config{})
		store := tracestore.New(0)
		a.SetExplain(store)
		for _, ev := range stream {
			if blind {
				ev.OpID, ev.OpName = 0, ""
			}
			a.Ingest(ev)
		}
		a.Close()
		return a.Reports(), store
	}
	for _, tc := range []struct {
		name    string
		stream  []trace.Event
		reports int
	}{
		{"faulty", experiments.FaultyBenchStream(50000), 12},
		{"storm", experiments.StormBenchStream(30000), 103},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decorated, ds := run(tc.stream, false)
			blind, bs := run(tc.stream, true)
			if len(decorated) != tc.reports || len(blind) != tc.reports {
				t.Fatalf("reports: decorated %d, blind %d, want %d", len(decorated), len(blind), tc.reports)
			}
			for i, d := range decorated {
				b := blind[i]
				if d.Fault.Seq != b.Fault.Seq || d.OffendingAPI != b.OffendingAPI || d.Beta != b.Beta ||
					d.Precision != b.Precision || !slices.Equal(d.Candidates, b.Candidates) {
					t.Errorf("report %d (fault seq %d): verdict changes blind: offending %v β=%d θ=%v %v, blind %v β=%d θ=%v %v",
						i, d.Fault.Seq, d.OffendingAPI, d.Beta, d.Precision, d.Candidates, b.OffendingAPI, b.Beta, b.Precision, b.Candidates)
				}
				if d.Precision < 0 || d.Precision > 1 {
					t.Errorf("report %d: θ = %v outside [0, 1]", i, d.Precision)
				}
				dj, err := json.Marshal(ds.Get(d.TraceID))
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(bs.Get(b.TraceID))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dj, bj) {
					t.Errorf("report %d (fault seq %d): evidence differs blind:\ndecorated %s\nblind     %s", i, d.Fault.Seq, dj, bj)
				}
			}
		})
	}
}
