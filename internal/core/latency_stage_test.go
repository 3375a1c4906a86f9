package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/fingerprint"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
)

// TestLatencyStageMatchesInline holds the latency stage — samples folded
// a batch at a time beside ingest, performance snapshots armed where
// their response was pushed — to the reference it replaced, each latency
// folded inline right after its push (core.Analyzer.IngestInline). Over
// the storm bench stream and the streams the Fig 6 and Fig 8b harnesses
// feed their analyzers, with performance detection off and on, inline
// and on a detect pool, with and without explain mode, and cut where
// the samples posted end at every phase of a batch, both must agree on
// the report JSON byte for byte, on every Stats field, on each API's
// latency summary, and on each detector's alarms, shifts and temporary
// changes; in explain mode, on every stored evidence trace.
func TestLatencyStageMatchesInline(t *testing.T) {
	storm := &experiments.PerfStream{
		Events: experiments.StormBenchStream(12000),
		Lib:    experiments.BenchLibrary(),
		// The storm's latencies are a few milliseconds: a low spread floor
		// lets its detectors alarm.
		Config: core.Config{Latency: tsoutliers.Options{MinSpread: 2e-4}},
	}
	streams := []struct {
		name string
		s    *experiments.PerfStream
	}{
		{"storm", storm},
		{"fig6", experiments.Fig6Stream(1, 20)},
		{"fig8b", experiments.Fig8bStream(1, 20)},
	}
	for _, st := range streams {
		evs := st.s.Events
		for _, perf := range []bool{false, true} {
			cfg := st.s.Config
			cfg.PerfDetection = perf
			// Every phase of a batch, inline: the cuts.
			cuts := phaseCuts(evs)
			if len(cuts) != 5 {
				t.Fatalf("%s: cuts %v miss a phase of a %d-sample batch", st.name, cuts, core.LatBatch)
			}
			for _, n := range cuts {
				name := fmt.Sprintf("%s/perf=%v/events=%d", st.name, perf, n)
				alarms, perfReps := compareStage(t, name, st.s.Lib, cfg, evs[:n], false)
				if n == len(evs) && (alarms == 0 || perf && perfReps == 0) {
					t.Fatalf("%s: %d alarms, %d performance reports: the comparison is vacuous", name, alarms, perfReps)
				}
			}
			// The whole stream on a detect pool, and in explain mode.
			cfg.DetectWorkers = 2
			compareStage(t, fmt.Sprintf("%s/perf=%v/workers=2", st.name, perf), st.s.Lib, cfg, evs, false)
			if perf {
				for _, workers := range []int{0, 2} {
					cfg.DetectWorkers = workers
					compareStage(t, fmt.Sprintf("%s/explain/workers=%d", st.name, workers), st.s.Lib, cfg, evs, true)
				}
			}
		}
	}
}

// phaseCuts returns the whole stream's length and the lengths at which
// the latency samples it posts (paired, non-faulty responses) number a
// whole batch, one past it, half a batch past it, and one short of the
// next — after at least one batch has folded on its own goroutine.
func phaseCuts(evs []trace.Event) []int {
	rest := make(map[uint64]bool)
	rpc := make(map[string]bool)
	var cuts []int
	samples := 0
	want := map[int]bool{0: true, 1: true, core.LatBatch / 2: true, core.LatBatch - 1: true}
	for i := range evs {
		ev := &evs[i]
		paired := false
		switch ev.Type {
		case trace.RESTRequest:
			rest[ev.ConnID] = true
		case trace.RPCCall:
			if ev.MsgID != "" {
				rpc[ev.MsgID] = true
			}
		case trace.RESTResponse:
			paired = rest[ev.ConnID]
			delete(rest, ev.ConnID)
		case trace.RPCReply:
			paired = rpc[ev.MsgID]
			delete(rpc, ev.MsgID)
		}
		if !paired || ev.Faulty() {
			continue
		}
		samples++
		if r := samples % core.LatBatch; samples > core.LatBatch && want[r] {
			delete(want, r)
			cuts = append(cuts, i+1)
		}
	}
	return append(cuts, len(evs))
}

// compareStage runs evs through an analyzer and through the inline
// reference, both configured by cfg, and fails the test where they
// differ. It returns the alarm count and the performance reports.
func compareStage(t *testing.T, name string, lib *fingerprint.Library, cfg core.Config, evs []trace.Event, explain bool) (alarms uint64, perfReps int) {
	t.Helper()
	got, want := core.New(lib, cfg), core.New(lib, cfg)
	if explain {
		got.SetExplain(tracestore.New(0))
		want.SetExplain(tracestore.New(0))
	}
	// Batches of an odd size, so batch hand-offs fall inside calls.
	for lo := 0; lo < len(evs); lo += 97 {
		got.IngestBatch(evs[lo:min(lo+97, len(evs))])
	}
	for i := range evs {
		want.IngestInline(evs[i])
	}
	got.Close()
	want.Close()

	if got.Stats != want.Stats {
		t.Fatalf("%s: stats\n%+v\nreference\n%+v", name, got.Stats, want.Stats)
	}
	gj, wj := mustJSON(t, got.Reports()), mustJSON(t, want.Reports())
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: %d reports differ from the reference's %d", name, len(got.Reports()), len(want.Reports()))
	}
	gs, ws := got.LatencySummaries(), want.LatencySummaries()
	if !bytes.Equal(mustJSON(t, gs), mustJSON(t, ws)) {
		t.Fatalf("%s: latency summaries differ from the reference's", name)
	}
	for _, s := range ws {
		g, w := got.LatencyDetector(s.API), want.LatencyDetector(s.API)
		if g.Observations() != w.Observations() || g.Level() != w.Level() || g.TempChanges() != w.TempChanges() ||
			!reflect.DeepEqual(g.Alarms(), w.Alarms()) || !reflect.DeepEqual(g.Shifts(), w.Shifts()) {
			t.Fatalf("%s: %v: detector n=%d alarms=%d shifts=%d tc=%d, reference n=%d alarms=%d shifts=%d tc=%d", name, s.API,
				g.Observations(), len(g.Alarms()), len(g.Shifts()), g.TempChanges(),
				w.Observations(), len(w.Alarms()), len(w.Shifts()), w.TempChanges())
		}
	}
	if explain {
		var gt, wt bytes.Buffer
		tracestore.WriteNDJSON(&gt, got.ExplainStore().All())
		tracestore.WriteNDJSON(&wt, want.ExplainStore().All())
		if gt.Len() == 0 || !bytes.Equal(gt.Bytes(), wt.Bytes()) {
			t.Fatalf("%s: evidence traces (%d bytes) differ from the reference's (%d bytes)", name, gt.Len(), wt.Len())
		}
	}
	for _, r := range got.Reports() {
		if r.Kind == core.Performance {
			perfReps++
		}
	}
	return got.Stats.PerfAlarms, perfReps
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
