// The two transport soaks of the fourteen scenarios: live loopback
// sockets, a sender per stream, and a ledger that must close or the
// benchmark fails. Run them with -cpu 1,2,4 — they are where goroutines
// actually contend.
package gretel_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/chaos"
	"gretel/internal/core"
	"gretel/internal/federation"
	"gretel/internal/fingerprint"
	"gretel/internal/replay"
	"gretel/internal/scenario"
	"gretel/internal/trace"
)

// soakStream is the chaos soak test's stream shape
// (internal/chaos/soak_test.go), scaled for benchmarking.
func soakStream(seed int64) []trace.Event {
	return replay.Synthesize(replay.StreamConfig{
		Events: scale(6000, 2500), Concurrency: 40, FaultEvery: 400, Seed: seed,
	})
}

// BenchmarkChaosSoak is delivered/s through the fault-injecting chaos
// dialer: sender → chaos conn → receiver → analyzer.
func BenchmarkChaosSoak(b *testing.B) {
	events, lib := soakStream(11), scenario.CoreLibrary()
	b.Run("soak", func(b *testing.B) {
		b.ReportAllocs()
		var m soakMetrics
		for i := 0; i < b.N; i++ {
			var err error
			if m, err = chaosSoak(lib, events); err != nil {
				b.Fatal(err)
			}
		}
		// The unit of work is an event sent: how many of them a pass
		// delivers (the rest are declared missing) swings by a quarter
		// with where a reset lands, while the work — framing, corrupting,
		// skipping, replaying — is done for all of them.
		b.ReportMetric(float64(len(events)), "events/op")
		b.ReportMetric(m.rate, "delivered/s")
		b.ReportMetric(float64(m.delivered), "delivered")
		b.ReportMetric(float64(m.missing), "missing")
		b.ReportMetric(float64(m.dups), "dups")
		b.ReportMetric(float64(m.gaps), "gaps")
	})
}

// awaitFlushed paces a soak's sender by volume: it yields until the
// writer has flushed every frame spooled so far, or for at most 50 ms
// while the connection is down (a chaos reset, a killed member).
func awaitFlushed(snd *agent.Sender) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for st := snd.Stats(); st.Flushed+st.Shed < st.Assigned && time.Now().Before(deadline); st = snd.Stats() {
		runtime.Gosched()
	}
}

type soakMetrics struct {
	delivered, missing, dups, gaps uint64
	rate                           float64
}

// chaosSoak pushes the stream through the chaos transport once. The
// zero-silent-loss invariant — delivered + missing == sent — is an error
// when it does not hold.
func chaosSoak(lib *fingerprint.Library, events []trace.Event) (soakMetrics, error) {
	recv, err := agent.ListenConfig(agent.ReceiverConfig{
		Addr: "127.0.0.1:0", ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		return soakMetrics{}, err
	}
	snd, err := agent.DialConfig(agent.SenderConfig{
		Addr: recv.Addr(), Agent: "bench-agent",
		Ring:       1 << 15, // retain the whole stream: resets replay, nothing sheds
		Heartbeat:  5 * time.Millisecond,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		WriteTimeout: 2 * time.Second, DrainTimeout: 30 * time.Second,
		Dialer: chaos.Dialer(chaos.Config{
			Seed: 1971,
			Drop: 0.02, Corrupt: 0.02, Split: 0.1,
			Delay: 0.05, DelayBy: 100 * time.Microsecond,
			Stall: 0.002, StallFor: 10 * time.Millisecond,
			Reset: 0.005,
		}),
	})
	if err != nil {
		recv.Close()
		return soakMetrics{}, err
	}

	a := core.New(lib, core.Config{Alpha: 256})
	var sendErr error
	var final agent.AgentStat
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range events {
			snd.Send(events[i])
			if i%16 == 15 {
				// Let the writer flush many small chunks, giving per-write
				// fault injection frame boundaries to hit.
				awaitFlushed(snd)
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			final = recv.AgentStats()["bench-agent"]
			if final.LastSeq >= uint64(len(events)) {
				break
			}
			if time.Now().After(deadline) {
				sendErr = fmt.Errorf("receiver high-water stuck at %d/%d", final.LastSeq, len(events))
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		snd.Close()
		recv.Close()
	}()
	res := replay.DriveTransport(a, recv, nil)
	<-done
	if sendErr != nil {
		return soakMetrics{}, sendErr
	}
	delivered := a.Stats.Events
	if delivered+final.Missing != uint64(len(events)) {
		return soakMetrics{}, fmt.Errorf("silent loss: %d delivered + %d missing != %d sent",
			delivered, final.Missing, len(events))
	}
	return soakMetrics{delivered: delivered, missing: final.Missing, dups: final.Dups, gaps: res.Gaps, rate: res.EventsPerSec}, nil
}

// BenchmarkClusterSoak is the federated fleet: two analyzers, two
// rendezvous-partitioned deployments, and in the failover case a
// mid-burst kill of the first deployment's owner, a spool-replay into
// the survivor, and the merged-report ledger.
func BenchmarkClusterSoak(b *testing.B) {
	// One event stream per monitored deployment: a deployment's pairing
	// spans its nodes, so each stream is one federation partition key.
	streams := [][]trace.Event{soakStream(21), soakStream(22)}
	lib := scenario.CoreLibrary()
	for _, tc := range []struct {
		name string
		kill bool
	}{{"steady", false}, {"failover", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var m fleetMetrics
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = fleetSoak(lib, streams, tc.kill); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.sent), "events/op")
			b.ReportMetric(m.rate, "delivered/s")
			b.ReportMetric(float64(m.delivered), "delivered")
			b.ReportMetric(float64(m.produced), "reports")
			b.ReportMetric(float64(m.merged), "merged")
			if tc.kill {
				// The survivor re-analyzes the victim's replayed prefix; the
				// overlap is the failover's at-least-once cost, surfaced here.
				b.ReportMetric(float64(m.delivered)-float64(m.sent), "replayed")
			}
		})
	}
}

type fleetMetrics struct {
	sent, produced, merged int
	delivered              uint64
	rate                   float64
}

// fedMember is one in-process analyzer member: receiver, analyzer,
// report log, and the transport-drive goroutine.
type fedMember struct {
	name string
	addr string
	recv *agent.Receiver
	core *core.Analyzer
	log  *federation.ReportLog
	done chan struct{}
}

// fleetSoak stands up a two-member analyzer fleet, streams each
// deployment to its rendezvous-assigned member, optionally kills the
// first deployment's owner mid-burst (the spool ring replays the whole
// stream into the survivor on the next resolve), and closes the run
// with two ledgers, either of which is an error when it does not hold:
// per-stream zero silent loss at the final owner (missing == 0 and
// dups == 0), and produced == merged with zero dups across the member
// report logs.
func fleetSoak(lib *fingerprint.Library, streams [][]trace.Event, kill bool) (fleetMetrics, error) {
	names := []string{"alpha", "beta"}
	members := map[string]*fedMember{}
	for _, name := range names {
		recv, err := agent.ListenConfig(agent.ReceiverConfig{
			Addr: "127.0.0.1:0", ReadTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			for _, m := range members {
				m.recv.Close()
			}
			return fleetMetrics{}, err
		}
		m := &fedMember{
			name: name, addr: recv.Addr(), recv: recv,
			core: core.New(lib, core.Config{Alpha: 256, Member: name}),
			log:  federation.NewReportLog(),
			done: make(chan struct{}),
		}
		m.core.OnReport(m.log.Record)
		members[name] = m
		go func(m *fedMember) {
			replay.DriveTransport(m.core, m.recv, nil)
			close(m.done)
		}(m)
	}

	// The coordinator's control plane in miniature: rendezvous assignment
	// over the alive set, consulted by every sender redial.
	var mu sync.Mutex
	alive := append([]string(nil), names...)
	resolve := func(key string) func() (string, error) {
		return func() (string, error) {
			mu.Lock()
			defer mu.Unlock()
			owner := federation.Assign(key, alive)
			if owner == "" {
				return "", fmt.Errorf("no alive members")
			}
			return members[owner].addr, nil
		}
	}
	currentOwner := func(key string) *fedMember {
		mu.Lock()
		defer mu.Unlock()
		return members[federation.Assign(key, alive)]
	}

	victim := federation.Assign("dep-1", names)
	// The kill is volume-deterministic so the committed bench numbers
	// are stable: every sender pauses at half stream, the controller
	// waits until the victim has admitted each paused first half, kills
	// it, and resumes — the survivor then replays exactly the retained
	// halves plus the back halves instead of a scheduling-dependent cut.
	halfDone := make(chan string, len(streams))
	resume := make(chan struct{})

	start := time.Now()
	errs := make(chan error, 2*len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		key, stream := fmt.Sprintf("dep-%d", i+1), streams[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd, err := agent.DialConfig(agent.SenderConfig{
				Resolve: resolve(key), Agent: key,
				Ring:       1 << 15, // retain the whole stream: failover replays everything
				Heartbeat:  5 * time.Millisecond,
				BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
				WriteTimeout: 2 * time.Second, DrainTimeout: 30 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			defer snd.Close()
			for j := range stream {
				snd.Send(stream[j])
				if kill && j == len(stream)/2 {
					halfDone <- key
					<-resume
				}
				if j%16 == 15 {
					// Let the writer flush so frames actually reach the
					// owner instead of piling up in the spool.
					awaitFlushed(snd)
				}
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				st := currentOwner(key).recv.AgentStats()[key]
				if st.LastSeq >= uint64(len(stream)) {
					if st.Missing != 0 || st.Dups != 0 {
						errs <- fmt.Errorf("%s: silent loss at final owner: missing=%d dups=%d", key, st.Missing, st.Dups)
					}
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("%s: owner high-water stuck at %d/%d", key, st.LastSeq, len(stream))
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	if kill {
		paused := map[string]int{}
		for range streams {
			key := <-halfDone
			for i := range streams {
				if key == fmt.Sprintf("dep-%d", i+1) {
					paused[key] = len(streams[i])/2 + 1
				}
			}
		}
		deadline := time.Now().Add(60 * time.Second)
		for key, sent := range paused {
			if currentOwner(key).name != victim {
				continue
			}
			for currentOwner(key).recv.AgentStats()[key].LastSeq < uint64(sent) {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("%s: victim never admitted the first half", key)
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		mu.Lock()
		keep := alive[:0]
		for _, n := range alive {
			if n != victim {
				keep = append(keep, n)
			}
		}
		alive = keep
		mu.Unlock()
		members[victim].recv.Close()
		close(resume)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, name := range names {
		members[name].recv.Close() // idempotent for the killed victim
		<-members[name].done
	}
	close(errs)
	if err := <-errs; err != nil {
		return fleetMetrics{}, err
	}

	// Merge the member logs exactly as the coordinator does and close
	// the report ledger: every produced report merges, none twice.
	m := fleetMetrics{}
	mrg := federation.NewMerger(federation.MergerConfig{
		Window: time.Second, Emit: func(federation.Envelope) { m.merged++ },
	})
	for _, name := range names {
		page := members[name].log.Page(0)
		m.produced += len(page.Reports)
		for _, e := range page.Reports {
			mrg.Add(federation.Envelope{Member: name, Epoch: 1, Seq: e.Seq, At: e.At, Report: e.Report})
		}
	}
	mrg.Flush()
	if st := mrg.Stats(); st.Dups != 0 || int(st.Merged) != m.merged || m.merged != m.produced {
		return fleetMetrics{}, fmt.Errorf("merge ledger broken: produced %d, merged %d, stats %+v", m.produced, m.merged, st)
	}

	for _, stream := range streams {
		m.sent += len(stream)
	}
	for _, mem := range members {
		m.delivered += mem.core.Stats.Events
	}
	m.rate = float64(m.delivered) / elapsed.Seconds()
	return m, nil
}
