// Canonical benchmark workloads: the streams, libraries and series the
// root package's benchmarks (scenario_bench_test.go, bench_test.go) and
// the wire→report benchmark (bench/) are built from, so a number in
// BENCH.txt and a layer of bench/'s budget describe the same inputs.
package experiments

import (
	"bytes"
	"math/rand"
	"time"

	"gretel/internal/cluster"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/replay"
	"gretel/internal/tempest"
	"gretel/internal/trace"
)

// BenchLibrary is the canonical fingerprint library for throughput
// benchmarks: the seed-1 catalog's ground-truth fingerprints.
func BenchLibrary() *fingerprint.Library {
	return GroundTruthLibrary(tempest.NewCatalog(1))
}

// BenchOps is the canonical throughput operation mix: ThroughputMix of
// the seed-1 catalog.
func BenchOps() []*openstack.Operation {
	return ThroughputMix(tempest.NewCatalog(1))
}

// FaultyBenchStream is the canonical Fig 8c-shaped stream: the BenchOps
// mix at concurrency 400 with one injected fault per 1000 messages,
// seed 7. BenchmarkExplainOverhead and BenchmarkOpdetect replay exactly
// this.
func FaultyBenchStream(events int) []trace.Event {
	return replay.Synthesize(replay.StreamConfig{
		Ops: BenchOps(), Concurrency: 400, Events: events, FaultEvery: 1000, Seed: 7,
	})
}

// StormBenchStream is FaultyBenchStream at Fig 8c's densest point, one
// fault per 100 messages (bench/'s direct-storm density).
// BenchmarkFig8cParallel replays it.
func StormBenchStream(events int) []trace.Event {
	return replay.Synthesize(replay.StreamConfig{
		Ops: BenchOps(), Concurrency: 400, Events: events, FaultEvery: 100, Seed: 7,
	})
}

// CleanBenchStream is the canonical fault-free ingest stream: the
// default core-operation mix at concurrency 200, seed 5 — pairing and
// per-API latency accounting are the whole cost. BenchmarkIngest,
// BenchmarkWALAppend and BenchmarkExportOverhead replay exactly this.
func CleanBenchStream(events int) []trace.Event {
	return replay.Synthesize(replay.StreamConfig{Concurrency: 200, Events: events, Seed: 5})
}

// DetectorBenchSeries is the canonical level-shift detector series: a
// jittery baseline with a sustained level episode every 4096 samples
// and occasional isolated spikes, deterministic in n. It exercises the
// detector's whole state machine — inlier maintenance (the MAD hot
// path), outlier runs, confirmed shifts with window rebuilds.
// BenchmarkDetector feeds exactly this.
func DetectorBenchSeries(n int) []float64 {
	s := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	level := 40.0
	for i := range s {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if i > 0 && i%4096 == 0 { // sustained episode: shift and revert
			if level == 40 {
				level = 90
			} else {
				level = 40
			}
		}
		jitter := float64(state%2048)/1024 - 1 // [-1, 1)
		s[i] = level + 2*jitter
		if state%977 == 0 { // isolated spike: alarms without a run
			s[i] += 60
		}
	}
	return s
}

// BenchPackets is the canonical tapped wire: the seed-1 deployment with
// 100 tests of the seed-1 catalog sustained for simSeconds of simulated
// time (heartbeats on, MySQL traffic included, every 400th step failed
// so error responses and failed replies are on it), recorded at the
// fabric tap. BenchmarkMonitor replays exactly this through
// agent.Monitor.HandlePacket.
func BenchPackets(simSeconds int) []cluster.Packet {
	d := openstack.NewDeployment(openstack.Config{
		Seed:            1,
		HeartbeatPeriod: 10 * time.Second,
		ThinkMin:        50 * time.Millisecond,
		ThinkMax:        150 * time.Millisecond,
	})
	d.Injector = &failEvery{n: 400}
	var packets []cluster.Packet
	d.Fabric.Tap(func(pkt cluster.Packet) {
		pkt.Payload = bytes.Clone(pkt.Payload) // a tap may not retain the fabric's bytes
		packets = append(packets, pkt)
	})
	tempest.SustainPool(d, tempest.NewCatalog(1), 100, rand.New(rand.NewSource(1)))
	d.Sim.RunUntil(d.Sim.Now().Add(time.Duration(simSeconds) * time.Second))
	return packets
}

// failEvery is the injector that fails every nth step it is asked about.
type failEvery struct{ n, calls int }

func (f *failEvery) Outcome(*openstack.Instance, int, openstack.Step, *cluster.Node, *cluster.Node) openstack.Outcome {
	if f.calls++; f.calls%f.n == 0 {
		return openstack.Outcome{Status: 500, ErrText: "Internal Server Error: injected fault"}
	}
	return openstack.Outcome{}
}
