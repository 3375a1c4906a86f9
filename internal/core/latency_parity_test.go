package core_test

import (
	"testing"
	"time"

	"gretel/internal/core"
	"gretel/internal/fingerprint"
	"gretel/internal/replay"
	"gretel/internal/stats"
	"gretel/internal/trace"
	"gretel/internal/tsoutliers"
)

// TestLatencyStatePerAPIMatchesStandalone holds the analyzer's merged
// per-API latency state to the sum of its parts: over a seeded
// multi-API stream, each API's detector and summary must equal a
// standalone tsoutliers.New(cfg.Latency) / stats.NewSummary() fed that
// API's paired latencies in order. State that leaks from one API into
// another — a shared detector, a summary keyed too coarsely — breaks the
// per-API equality; Stats.PerfAlarms must be the sum over APIs.
func TestLatencyStatePerAPIMatchesStandalone(t *testing.T) {
	// 250 events/s puts 4 ms between messages, so paired latencies are
	// multiples of 4 ms spread by the interleaving of 40 concurrent
	// operations: enough variation past the 5 ms spread floor to raise
	// alarms and confirm shifts.
	evs := replay.Synthesize(replay.StreamConfig{Concurrency: 40, Events: 60000, PPS: 250, FaultEvery: 211, Seed: 21})
	a := core.New(fingerprint.NewLibrary(), core.Config{})
	for lo := 0; lo < len(evs); lo += 100 {
		a.IngestBatch(evs[lo:min(lo+100, len(evs))])
	}
	a.Close()
	cfg := a.Config()

	type oracle struct {
		det *tsoutliers.Detector
		sum *stats.Summary
	}
	want := make(map[trace.API]*oracle)
	restAt := make(map[uint64]time.Time)
	rpcAt := make(map[string]time.Time)
	for i := range evs {
		ev := &evs[i]
		var sent time.Time
		var paired bool
		switch ev.Type {
		case trace.RESTRequest:
			restAt[ev.ConnID] = ev.Time
		case trace.RPCCall:
			rpcAt[ev.MsgID] = ev.Time
		case trace.RESTResponse:
			sent, paired = restAt[ev.ConnID]
			delete(restAt, ev.ConnID)
		case trace.RPCReply:
			sent, paired = rpcAt[ev.MsgID]
			delete(rpcAt, ev.MsgID)
		}
		if !paired || ev.Faulty() {
			continue
		}
		o := want[ev.API]
		if o == nil {
			o = &oracle{tsoutliers.New(cfg.Latency), stats.NewSummary()}
			want[ev.API] = o
		}
		v := ev.Time.Sub(sent).Seconds()
		o.det.Observe(ev.Time, v)
		o.sum.Observe(v)
	}
	if len(want) < 10 {
		t.Fatalf("stream exercised only %d APIs", len(want))
	}

	got := a.LatencySummaries()
	if len(got) != len(want) {
		t.Fatalf("%d summaries, want %d", len(got), len(want))
	}
	var alarms, shifts int
	for _, g := range got {
		o := want[g.API]
		if o == nil {
			t.Fatalf("summary for %v, which paired no latency", g.API)
		}
		if g.Summary.Count() != o.sum.Count() || g.Summary.Min() != o.sum.Min() || g.Summary.Max() != o.sum.Max() ||
			g.Summary.Quantile(0.5) != o.sum.Quantile(0.5) || g.Summary.Quantile(0.95) != o.sum.Quantile(0.95) {
			t.Fatalf("%v: summary %s, standalone %s", g.API, g.Summary, o.sum)
		}
		d := a.LatencyDetector(g.API)
		if d == nil {
			t.Fatalf("%v: no detector", g.API)
		}
		if d.Observations() != o.det.Observations() || d.AlarmCount(0) != o.det.AlarmCount(0) ||
			len(d.Shifts()) != len(o.det.Shifts()) || d.Level() != o.det.Level() {
			t.Fatalf("%v: detector n=%d alarms=%d shifts=%d level=%v, standalone n=%d alarms=%d shifts=%d level=%v",
				g.API, d.Observations(), d.AlarmCount(0), len(d.Shifts()), d.Level(),
				o.det.Observations(), o.det.AlarmCount(0), len(o.det.Shifts()), o.det.Level())
		}
		for i, s := range d.Shifts() {
			if s != o.det.Shifts()[i] {
				t.Fatalf("%v: shift %d = %+v, standalone %+v", g.API, i, s, o.det.Shifts()[i])
			}
		}
		alarms += o.det.AlarmCount(0)
		shifts += len(o.det.Shifts())
	}
	if alarms == 0 || shifts == 0 {
		t.Fatalf("stream raised %d alarms, %d shifts: the comparison is vacuous", alarms, shifts)
	}
	if a.Stats.PerfAlarms != uint64(alarms) {
		t.Fatalf("Stats.PerfAlarms = %d, per-API sum %d", a.Stats.PerfAlarms, alarms)
	}
	if a.LatencyDetector(trace.RESTAPI(trace.SvcNova, "GET", "/never-seen")) != nil {
		t.Fatal("detector for an API that never paired")
	}
}
