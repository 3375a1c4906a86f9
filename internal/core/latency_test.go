package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gretel/internal/trace"
	"gretel/internal/tsoutliers"
)

// TestLatTrackObserveSteadyStateAllocFree pins the per-pair cost of
// latency tracking on known APIs through Ingest: the post to the latency
// stage's batch, the hand-off of a full batch to its fold goroutine, the
// collection, and with PerfDetection on the deadline collections that
// fold on the receiver. None of it allocates once the detectors' windows
// and the summaries' reservoirs have filled: the batch buffers are
// reused, the fold goroutine's body is made once per analyzer, and the
// runtime reuses the exited fold goroutine. Each measured run ingests one
// batch's worth of pairs, so it crosses one batch boundary.
func TestLatTrackObserveSteadyStateAllocFree(t *testing.T) {
	for _, perf := range []bool{false, true} {
		a := New(testLib(), Config{PerfDetection: perf})
		apis := [...]struct {
			api  trace.API
			base time.Duration
		}{{get("/list"), 10 * time.Millisecond}, {get("/status"), 40 * time.Millisecond}}
		i, now := 0, epoch
		batch := func() {
			for range LatBatch {
				k := apis[i%len(apis)]
				jitter := time.Duration(i%7) * 100 * time.Microsecond
				conn := uint64(i + 1)
				a.Ingest(trace.Event{Time: now, Type: trace.RESTRequest, API: k.api, ConnID: conn})
				now = now.Add(k.base + jitter)
				a.Ingest(trace.Event{Time: now, Type: trace.RESTResponse, API: k.api, Status: 200, ConnID: conn})
				i++
			}
		}
		for range 8 {
			batch()
		}
		alarms, pairs := a.Stats.PerfAlarms, a.Stats.RESTPairs
		if allocs := testing.AllocsPerRun(8, batch); allocs != 0 {
			t.Errorf("perf=%v: %d pairs on known APIs allocated %.2f times, across one batch boundary", perf, LatBatch, allocs)
		}
		// AllocsPerRun runs batch once more than it measures.
		if n := a.Stats.RESTPairs - pairs; n != 9*LatBatch || a.Stats.PerfAlarms != alarms {
			t.Fatalf("perf=%v: measured %d pairs and %d alarms, want %d pairs and none: not the steady state", perf, n, a.Stats.PerfAlarms-alarms, 9*LatBatch)
		}
		var folded uint64
		for _, s := range a.LatencySummaries() {
			folded += s.Summary.Count()
		}
		if len(a.apis.recs) != len(apis) || folded != a.Stats.RESTPairs {
			t.Fatalf("perf=%v: %d APIs folded %d samples, want %d and %d", perf, len(a.apis.recs), folded, len(apis), a.Stats.RESTPairs)
		}
	}
}

// TestPerfSnapshotsArmInTime pins the deadline the latency stage keeps
// with PerfDetection on: a batch's verdicts are collected before the
// push on which an alarm's snapshot must fire, α/2 pushes after its
// response, wherever the alarm falls in its batch. A cluster of slow
// responses is moved one push at a time across the stage's batch
// boundaries, so that in some runs it opens a batch and in others it
// closes one; every alarm must get its snapshot on its fault's push +
// α/2, exactly as the inline reference arms it. A stage that collected
// later could not arm the snapshot at all (ArmBack rejects a fault α/2
// pushes old) or would centre it elsewhere.
func TestPerfSnapshotsArmInTime(t *testing.T) {
	const alpha = 64
	cfg := Config{
		Alpha: alpha, PerfDetection: true,
		Latency: tsoutliers.Options{Warmup: 8, MinRun: 3, MinSpread: 0.005},
	}
	// A batch spans at most alpha/2 pushes: one exchange (two pushes)
	// more of baseline, or one unanswered request, moves the cluster by
	// a push against the batch boundaries.
	for shift := 0; shift < alpha; shift++ {
		var evs []trace.Event
		s := &stream{emit: func(ev trace.Event) { evs = append(evs, ev) }}
		for i := 0; i < 12+shift/2; i++ {
			s.rest(get("/status"), 200, 1, "op-a")
		}
		if shift%2 == 1 { // a request never answered: a push, no sample
			s.ms += 10
			s.push(trace.Event{Time: at(s.ms), Type: trace.RESTRequest, API: get("/list"), ConnID: 1 << 32})
		}
		// The cluster: three slow responses back to back, each past the
		// last one's cooldown, so that every alarm arms.
		for i := 0; i < 3; i++ {
			s.conn++
			s.ms += int(perfCooldown / time.Millisecond)
			s.push(trace.Event{Time: at(s.ms), Type: trace.RESTRequest, API: get("/status"), ConnID: s.conn, OpID: 2, OpName: "op-a"})
			s.ms += 200
			s.push(trace.Event{Time: at(s.ms), Type: trace.RESTResponse, API: get("/status"), Status: 200, ConnID: s.conn, OpID: 2, OpName: "op-a"})
		}
		s.filler(alpha)

		got, want := newAnalyzer(cfg), newAnalyzer(cfg)
		for _, ev := range evs {
			got.Ingest(ev)
			want.IngestInline(ev)
		}
		got.Flush()
		want.Flush()
		gj, _ := json.Marshal(got.Reports())
		wj, _ := json.Marshal(want.Reports())
		if !bytes.Equal(gj, wj) {
			t.Fatalf("shift %d: reports differ from the inline reference's", shift)
		}
		perf := 0
		for _, r := range got.Reports() {
			if r.Kind != Performance {
				continue
			}
			perf++
			if fire := evs[r.Fault.Seq-1+alpha/2].Time; !r.DetectedAt.Equal(fire) {
				t.Fatalf("shift %d: the snapshot for push %d froze at %v, want %v (push %d)",
					shift, r.Fault.Seq, r.DetectedAt, fire, r.Fault.Seq+alpha/2)
			}
		}
		if perf < 2 {
			t.Fatalf("shift %d: %d performance reports, want the cluster's alarms", shift, perf)
		}
	}
}
