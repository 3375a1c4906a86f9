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

// TestEvidenceBlindParity holds evidence traces to what a deployment can
// see: explain mode runs twice over the same stream, once decorated and
// once with the ground-truth OpID and OpName zeroed before Ingest, and
// every report whose verdict (Fault.Seq, OffendingAPI, Beta, Candidates)
// is the same in both runs must store a byte-identical trace. Evidence
// that changes when only the answer key is removed was reading it.
//
// The counts pin how many reports are compared. On the storm stream 69
// of 103 verdicts change blind, because the offending-API rule itself
// still compares OpID (the "verdict reads the answer key" defect this
// test does not cover), so those reports are skipped, not compared.
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
		name           string
		stream         []trace.Event
		reports, equal int
	}{
		{"faulty", experiments.FaultyBenchStream(50000), 12, 12},
		{"storm", experiments.StormBenchStream(30000), 103, 34},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decorated, ds := run(tc.stream, false)
			blind, bs := run(tc.stream, true)
			if len(decorated) != tc.reports || len(blind) != tc.reports {
				t.Fatalf("reports: decorated %d, blind %d, want %d", len(decorated), len(blind), tc.reports)
			}
			compared := 0
			for i, d := range decorated {
				b := blind[i]
				if d.Fault.Seq != b.Fault.Seq || d.OffendingAPI != b.OffendingAPI ||
					d.Beta != b.Beta || !slices.Equal(d.Candidates, b.Candidates) {
					continue
				}
				compared++
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
			if compared != tc.equal {
				t.Fatalf("compared %d reports with the same verdict blind, want %d", compared, tc.equal)
			}
		})
	}
}
