// The thirteen pipeline scenarios, one Benchmark each with a b.Run per
// case. One b.N iteration is one full pass over the canonical workload
// (internal/experiments/bench.go), so `-benchtime 3x` is three passes;
// -short picks the CI-sized workloads ci/bench_gate.sh runs. Each case
// reports its unit of work as events/op or reports/op — ci/benchcmp
// derives ns, allocs and B per event / per report from it, the numbers
// that survive workload scaling — beside its rates and ledger counts,
// and fails (b.Fatal) where the pipeline's own accounting does not
// close: a bench run that loses events silently measures garbage.
package gretel_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/core"
	"gretel/internal/experiments"
	"gretel/internal/openstack"
	"gretel/internal/rca"
	"gretel/internal/replay"
	"gretel/internal/scenario"
	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/tracestore"
	"gretel/internal/tsoutliers"
	"gretel/internal/wal"
	"gretel/internal/window"
)

// scale picks a workload size: full by default, CI-sized under -short.
func scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// reportDrive reports a replay result's work unit, rates and report count.
func reportDrive(b *testing.B, res replay.Result) {
	b.ReportMetric(float64(res.Events), "events/op")
	b.ReportMetric(res.EventsPerSec, "events/s")
	b.ReportMetric(res.Mbps, "Mbps")
	b.ReportMetric(float64(res.Reports), "reports")
}

// BenchmarkIngest is the analyzer alone on the canonical fault-free
// stream: pairing, latency tracking and window push are the whole cost.
// "inline" is the library default, whose latency stage folds full
// batches beside the receiver; "perf" turns on performance detection,
// as `gretel analyze` does, which collects every batch within α/2
// pushes and arms the snapshots of the stream's latency alarms.
func BenchmarkIngest(b *testing.B) {
	lib := experiments.BenchLibrary()
	stream := experiments.CleanBenchStream(scale(50000, 20000))
	run := func(name string, cfg core.Config) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res replay.Result
			for i := 0; i < b.N; i++ {
				res = replay.Drive(core.New(lib, cfg), stream)
			}
			reportDrive(b, res)
		})
	}
	run("inline", core.Config{})
	run("perf", core.Config{PerfDetection: true})
}

// BenchmarkFig8cParallel replays the fault-dense Fig 8c stream (one
// fault per 100 messages) with detection inline and on a worker pool of
// 1/2/4/8, so the concurrency speedup lands beside the Mbps series (run
// it with -cpu 1,2,4). At that density detection is most of the work, so
// the worker cases measure the pool doing it, not the pool idling.
func BenchmarkFig8cParallel(b *testing.B) {
	lib := experiments.BenchLibrary()
	stream := experiments.StormBenchStream(scale(100000, 30000))
	run := func(name string, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res replay.Result
			for i := 0; i < b.N; i++ {
				res = replay.Drive(core.New(lib, core.Config{DetectWorkers: workers}), stream)
			}
			if res.Reports == 0 {
				b.Fatal("faulty stream produced no reports")
			}
			reportDrive(b, res)
		})
	}
	run("inline", 0)
	for _, w := range []int{1, 2, 4, 8} {
		run(fmt.Sprintf("workers=%d", w), w)
	}
}

// BenchmarkExplainOverhead is evidence-trace recording on vs off. The
// stream is the faulty one: traces are only recorded when reports fire,
// so an all-healthy run would measure the (nil-check) disabled path twice.
func BenchmarkExplainOverhead(b *testing.B) {
	lib := experiments.BenchLibrary()
	stream := experiments.FaultyBenchStream(scale(50000, 20000))
	reportsOff := -1
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		var res replay.Result
		for i := 0; i < b.N; i++ {
			a := core.New(lib, core.Config{})
			a.SetExplain(nil)
			res = replay.Drive(a, stream)
		}
		if res.TracesStored != 0 {
			b.Fatalf("explain off stored %d traces", res.TracesStored)
		}
		reportsOff = res.Reports
		reportDrive(b, res)
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		var res replay.Result
		for i := 0; i < b.N; i++ {
			a := core.New(lib, core.Config{})
			a.SetExplain(tracestore.New(0))
			res = replay.Drive(a, stream)
		}
		if res.TracesStored == 0 {
			b.Fatal("explain mode stored no traces")
		}
		if reportsOff >= 0 && res.Reports != reportsOff {
			b.Fatalf("explain changed the report count: off=%d on=%d", reportsOff, res.Reports)
		}
		reportDrive(b, res)
		b.ReportMetric(float64(res.TracesStored), "traces_stored")
	})
}

// BenchmarkTable1Learning is the full offline characterization: 1200
// isolated test executions per run, noise filtering, LCS learning.
func BenchmarkTable1Learning(b *testing.B) {
	runs := scale(2, 1)
	b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := experiments.Table1(1, runs); res.FPMax != 384 {
				b.Fatalf("FPmax = %d, want the paper's 384", res.FPMax)
			}
		}
		b.ReportMetric(384, "fpmax")
	})
}

// BenchmarkDetector is the level-shift detector's Observe over the
// canonical series, sweeping the inlier window bound. Per-event work is
// a binary search plus a memmove of at most W floats — linear in W with
// a tiny constant, and no per-event allocation. 60 is the only window
// the product uses (no caller sets Options.Window); 240 and 960 are
// there so the committed numbers show how slowly the cost climbs, and
// would catch a change that made it climb fast.
func BenchmarkDetector(b *testing.B) {
	series := experiments.DetectorBenchSeries(scale(1_000_000, 250_000))
	t0 := time.Date(2016, 12, 12, 0, 0, 0, 0, time.UTC)
	for _, w := range []int{60, 240, 960} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var d *tsoutliers.Detector
			for i := 0; i < b.N; i++ {
				d = tsoutliers.New(tsoutliers.Options{Window: w, MinSpread: 0.5, MaxAlarms: 4096})
				for j, v := range series {
					d.Observe(t0.Add(time.Duration(j)*time.Millisecond), v)
				}
			}
			if d.AlarmCount(0) == 0 || len(d.Shifts()) == 0 {
				b.Fatalf("detector series raised no alarms/shifts (alarms=%d, shifts=%d)", d.AlarmCount(0), len(d.Shifts()))
			}
			b.ReportMetric(float64(len(series)), "events/op")
			b.ReportMetric(float64(d.AlarmCount(0)), "alarms")
			b.ReportMetric(float64(len(d.Shifts())), "shifts")
		})
	}
}

// BenchmarkWALAppend is durable capture cost per event under the two
// fsync policies a deployment actually chooses between: none (flush to
// the OS per batch, fsync only on rotation) and interval (a bounded loss
// window). "every" is deliberately not benchmarked — one fsync per
// append is disk-bound, not a pipeline cost, and would swamp the gate
// tolerance with device noise. Each pass appends the canonical clean
// stream in ingest-sized batches through a fresh log in a throwaway
// directory. events/record is the mean number of events each batch
// record carries — what the append and replay costs per event divide by.
// "record" is fsync=none on the receiver's path: the same batches
// already laid out as records of their wire bodies, written by
// AppendRecord without encoding them again, into the same bytes.
func BenchmarkWALAppend(b *testing.B) {
	stream := experiments.CleanBenchStream(scale(50000, 20000))
	const batch = 256
	var handOffs [][]byte
	for lo := 0; lo < len(stream); lo += batch {
		rec := seglog.StartBatch(nil)
		for i := lo; i < min(lo+batch, len(stream)); i++ {
			rec = seglog.AppendEntry(rec, trace.AppendEvent(nil, &stream[i]))
		}
		if len(rec)-seglog.HdrLen > seglog.BatchBytes {
			b.Fatalf("a batch of %d events makes a %d-byte record, over seglog.BatchBytes", batch, len(rec))
		}
		handOffs = append(handOffs, rec)
	}
	records := telemetry.GetCounter("wal.records")
	for _, tc := range []struct {
		name    string
		policy  wal.Fsync
		records bool
	}{{"fsync=none", wal.FsyncNone, false}, {"fsync=interval", wal.FsyncInterval, false}, {"record", wal.FsyncNone, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st wal.Stats
			var recs uint64
			for i := 0; i < b.N; i++ {
				recs0 := records.Value()
				l, err := wal.Open(wal.Options{Dir: b.TempDir(), Fsync: tc.policy})
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(stream); lo += batch {
					hi := min(lo+batch, len(stream))
					if tc.records {
						_, err = l.AppendRecord(handOffs[lo/batch], hi-lo)
					} else {
						_, err = l.AppendBatch(stream[lo:hi])
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				st, recs = l.Stats(), records.Value()-recs0
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
				if st.Appended != uint64(len(stream)) {
					b.Fatalf("appended %d of %d events", st.Appended, len(stream))
				}
			}
			b.ReportMetric(float64(len(stream)), "events/op")
			b.ReportMetric(float64(st.Bytes)/float64(len(stream)), "disk-B/event")
			b.ReportMetric(float64(st.Segments), "segments")
			b.ReportMetric(float64(st.Synced), "syncs")
			b.ReportMetric(float64(len(stream))/float64(recs), "events/record")
		})
	}
}

// BenchmarkWALReplay is boot recovery: replay.DriveWAL over a log
// pre-written with the canonical faulty stream, into a fresh analyzer
// each pass. The reader stage (scan, CRC, decode) overlaps the analyzer
// only when a second processor is free, so it runs at -cpu 1,2,4. Its
// cost per event depends on how many events each append captured, since
// each append is one batch record: "recover" reads a log written in one
// AppendBatch (records split at seglog.BatchBytes), per-append=16 and
// per-append=1 logs written 16 and 1 events at a time — the last is the
// single Ingest's capture, one envelope and one CRC per event.
func BenchmarkWALReplay(b *testing.B) {
	lib := experiments.BenchLibrary()
	stream := experiments.FaultyBenchStream(scale(50000, 20000))
	records := telemetry.GetCounter("wal.records")
	for _, tc := range []struct {
		name string
		per  int
	}{{"recover", len(stream)}, {"per-append=16", 16}, {"per-append=1", 1}} {
		dir := b.TempDir()
		recs0 := records.Value()
		l, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(stream); lo += tc.per {
			if _, err := l.AppendBatch(stream[lo:min(lo+tc.per, len(stream))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		perRecord := float64(len(stream)) / float64(records.Value()-recs0)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var res replay.WALResult
			for i := 0; i < b.N; i++ {
				if res, err = replay.DriveWAL(core.New(lib, core.Config{}), dir, replay.WALDrive{}); err != nil {
					b.Fatal(err)
				}
				if rs := res.Recovery; res.Events != len(stream) || rs.Records != uint64(len(stream)) || rs.Quarantined != 0 {
					b.Fatalf("replayed %d of %d events (recovered %d, quarantined %d)", res.Events, len(stream), rs.Records, rs.Quarantined)
				}
			}
			b.ReportMetric(float64(len(stream)), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/event")
			b.ReportMetric(res.EventsPerSec, "events/s")
			b.ReportMetric(float64(res.Reports), "reports")
			b.ReportMetric(perRecord, "events/record")
		})
	}
}

// BenchmarkOpdetect is Algorithm 2 alone: operation detection over the
// frozen snapshots of the canonical Fig 8c faulty stream, reported per
// snapshot as ns/report. Set-up freezes
// one fault-centered snapshot per REST error — the analyzer's own arming
// rule, through the same dual-buffer window, each event pushed with the
// window word ingest gives it — so the case times detection as the
// analyzer runs it and nothing else. The snapshots are never released:
// every pass re-detects the same frozen windows.
func BenchmarkOpdetect(b *testing.B) {
	a := core.New(experiments.BenchLibrary(), core.Config{})
	var (
		faults []trace.Event
		snaps  []*window.Snapshot
	)
	win := window.New(a.Config().Alpha)
	stream := experiments.FaultyBenchStream(scale(500000, 200000))
	for i := range stream {
		ev := &stream[i]
		win.PushSeq(ev, ev.Seq, a.Word(ev))
		if ev.Faulty() && ev.Type == trace.RESTResponse {
			fault := *ev
			win.Arm(func(snap *window.Snapshot) {
				faults = append(faults, fault)
				snaps = append(snaps, snap)
			})
		}
	}
	win.Flush()
	if len(snaps) == 0 || len(snaps[0].Words(nil)) == 0 {
		b.Fatal("faulty stream froze no word-carrying snapshots")
	}
	attempts := telemetry.GetCounter("core.opdetect.attempts")
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		matched, attempts0 := 0, attempts.Value()
		for i := 0; i < b.N; i++ {
			matched = 0
			for j, snap := range snaps {
				matched += len(a.Detect(faults[j], core.Operational, 0, snap).Candidates)
			}
		}
		if matched == 0 {
			b.Fatal("no snapshot matched any operation")
		}
		if got, want := attempts.Value()-attempts0, uint64(b.N*len(snaps)); got != want {
			b.Fatalf("core.opdetect.attempts += %d, want one per frozen snapshot per pass (%d)", got, want)
		}
		b.ReportMetric(float64(len(snaps)), "reports/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(snaps)), "ns/report")
		b.ReportMetric(float64(matched), "matched")
	})
}

// BenchmarkMonitor is the tap alone: agent.Monitor.HandlePacket over the
// canonical tapped wire (in-place REST and AMQP scanners), sink counting.
func BenchmarkMonitor(b *testing.B) {
	packets := experiments.BenchPackets(scale(60, 20))
	b.Run("tap", func(b *testing.B) {
		b.ReportAllocs()
		var events, faulty int
		for i := 0; i < b.N; i++ {
			events, faulty = 0, 0
			mon := agent.NewMonitor("bench", func(ev trace.Event) {
				events++
				if ev.Faulty() {
					faulty++
				}
			}, nil)
			for _, pkt := range packets {
				mon.HandlePacket(pkt)
			}
			if events == 0 || faulty == 0 || mon.Ignored == 0 || mon.ParseErrors != 0 {
				b.Fatalf("tap saw %d events (%d faulty), ignored %d packets, %d parse errors", events, faulty, mon.Ignored, mon.ParseErrors)
			}
		}
		b.ReportMetric(float64(events), "events/op")
		b.ReportMetric(float64(len(packets)), "packets")
		b.ReportMetric(float64(faulty), "faulty")
	})
}

// BenchmarkCodec is the event body codec alone over the events the tap
// emits from the canonical tapped wire (BenchmarkMonitor's input):
// encode appends each body into one reused buffer, as a Sender's frame
// does; decode reads the bodies back through one fresh Decoder per pass,
// as a Receiver connection or a WAL scan does, and fails unless the
// last event re-encodes to its own body.
func BenchmarkCodec(b *testing.B) {
	var stream []trace.Event
	mon := agent.NewMonitor("bench", func(ev trace.Event) { stream = append(stream, ev) }, nil)
	for _, pkt := range experiments.BenchPackets(scale(60, 20)) {
		mon.HandlePacket(pkt)
	}
	bodies, size := make([][]byte, len(stream)), 0
	for i := range stream {
		bodies[i] = trace.AppendEvent(nil, &stream[i])
		size += len(bodies[i])
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(stream)), "events/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/event")
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 1024)
		for i := 0; i < b.N; i++ {
			n := 0
			for j := range stream {
				buf = trace.AppendEvent(buf[:0], &stream[j])
				n += len(buf)
			}
			if n != size {
				b.Fatalf("encoded %d bytes, want %d", n, size)
			}
		}
		report(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var ev trace.Event
		for i := 0; i < b.N; i++ {
			var dec trace.Decoder
			for _, body := range bodies {
				if err := dec.Decode(trace.BodyBinary, body, &ev); err != nil {
					b.Fatal(err)
				}
			}
			if last := bodies[len(bodies)-1]; !bytes.Equal(trace.AppendEvent(nil, &ev), last) {
				b.Fatal("the last event did not decode to its own body")
			}
		}
		report(b)
	})
}

// BenchmarkTransport is the event plane alone: a Sender over loopback
// TCP into a Receiver, whose batches the bench goroutine drains while a
// second goroutine sends the canonical fault-free stream, one pass per
// iteration over one connection. Run it with -cpu 1,2,4: the two
// goroutines only overlap when a second processor is free. Beside
// ns/event it reports events per receiver batch (transport.batches), the
// hand-off size the analyzer sees, and it fails unless every event sent
// is delivered: nothing shed, nothing declared missing.
func BenchmarkTransport(b *testing.B) {
	stream := experiments.CleanBenchStream(scale(50000, 20000))
	batches := telemetry.GetCounter("transport.batches")
	b.Run("loopback", func(b *testing.B) {
		b.ReportAllocs()
		recv, err := agent.ListenConfig(agent.ReceiverConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		defer recv.Close()
		snd, err := agent.DialConfig(agent.SenderConfig{
			Addr: recv.Addr(), Agent: "bench-agent",
			Ring: 2 * len(stream), // a pass never sheds while the receiver catches up
		})
		if err != nil {
			b.Fatal(err)
		}
		defer snd.Close()
		if err := snd.WaitConnected(5 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		batches0, delivered := batches.Value(), 0
		for i := 0; i < b.N; i++ {
			go func() {
				for j := range stream {
					snd.Send(stream[j])
				}
			}()
			timeout := time.NewTimer(time.Minute)
			for want := (i + 1) * len(stream); delivered < want; {
				select {
				case batch := <-recv.Batches():
					delivered += len(batch.Events)
					recv.Recycle(batch)
				case <-timeout.C:
					b.Fatalf("pass %d: %d of %d events delivered within a minute", i, delivered, want)
				}
			}
			timeout.Stop()
		}
		b.StopTimer()
		sent := b.N * len(stream)
		st := recv.AgentStats()["bench-agent"]
		if shed := snd.Stats().Shed; delivered+int(st.Missing) != sent || st.Missing != 0 || shed != 0 {
			b.Fatalf("%d delivered + %d missing of %d sent (%d shed)", delivered, st.Missing, sent, shed)
		}
		b.ReportMetric(float64(len(stream)), "events/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sent), "ns/event")
		b.ReportMetric(float64(delivered)/float64(batches.Value()-batches0), "events/batch")
	})
}

// BenchmarkRCA is Algorithm 3 alone: Engine.Analyze over a Store in its
// production shape — 1 s polls of 10 nodes with a full 120 s lookback
// already applied, so from the first report on every window slides at
// both ends (the shape the 6-sim-second end-to-end streams never reach)
// — at 1/10/100 reports per poll, plus ExplainHook at 10. Each poll's
// reports are spread over its second, so a burst sees the window's
// newest sample arrive once and its oldest leave once: every node is
// judged at most twice per poll and the rest is reuse, which the
// expected share asserts.
func BenchmarkRCA(b *testing.B) {
	polls := scale(300, 100)
	store := rca.NewStore()
	// An idle deployment's state, re-stamped per poll: the same ten
	// nodes, every sample moved by a bounded ±1, 1 s after the last.
	update := agent.CollectState(openstack.NewDeployment(openstack.Config{Seed: 16, ComputeNodes: 1}).Fabric, time.Time{})
	polled := 0
	poll := func() time.Time {
		polled++
		at := time.Date(2016, 12, 12, 0, 0, polled, 0, time.UTC)
		for i := range update.Samples {
			m := &update.Samples[i]
			m.Time, m.Value = at, m.Value+float64((polled+i)%3-1)
		}
		store.Apply(update)
		return at
	}
	for polled < 120 {
		poll()
	}
	judged, reused := telemetry.GetCounter("rca.windows.judged"), telemetry.GetCounter("rca.windows.reused")
	lib := scenario.CoreLibrary()
	for _, tc := range []struct {
		name        string
		perPoll     int
		explain     bool
		reusedShare float64
	}{
		{"reports-per-poll=1", 1, false, 0},
		{"reports-per-poll=10", 10, false, 0.8},
		{"reports-per-poll=100", 100, false, 0.98},
		{"explain-reports-per-poll=10", 10, true, 0.8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var share float64
			for i := 0; i < b.N; i++ {
				e := rca.NewEngine(lib, store, rca.Config{})
				hook := e.Hook()
				if ex := e.ExplainHook(); tc.explain {
					hook = func(rep *core.Report) []core.RootCause { c, _ := ex(rep); return c }
				}
				j0, r0 := judged.Value(), reused.Value()
				rep := &core.Report{Kind: core.Operational, Candidates: []string{"vm-create"},
					Errors: []trace.Event{{SrcNode: "horizon-node", DstNode: "nova-node"}}}
				for p := 0; p < polls; p++ {
					at := poll()
					for r := 0; r < tc.perPoll; r++ {
						rep.Fault.Time = at.Add(time.Duration(r) * time.Second / time.Duration(tc.perPoll))
						hook(rep)
					}
				}
				j, r := float64(judged.Value()-j0), float64(reused.Value()-r0)
				if j == 0 {
					b.Fatal("no node's windows were judged")
				}
				if share = r / (j + r); math.Abs(share-tc.reusedShare) > 1e-9 {
					b.Fatalf("windows reused share %v, want %v", share, tc.reusedShare)
				}
			}
			b.ReportMetric(float64(polls*tc.perPoll), "reports/op")
			b.ReportMetric(share, "windows_reused_share")
		})
	}
}
