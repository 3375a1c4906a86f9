// The transport soak of the thirteen scenarios: live loopback sockets,
// a sender per stream, and a ledger that must close or the benchmark
// fails. Run it with -cpu 1,2,4 — it is where goroutines actually
// contend.
package gretel_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gretel/internal/agent"
	"gretel/internal/chaos"
	"gretel/internal/core"
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
// while the connection is down (a chaos reset).
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
