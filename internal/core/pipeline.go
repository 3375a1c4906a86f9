// Concurrent detection pipeline: the event receiver (Ingest) freezes
// fault-centered snapshots and hands them to a bounded worker pool that
// runs Algorithm 2 off the hot path, so a fault burst never stalls event
// intake (§7.4's throughput claim under load). A sequenced collector
// applies finished reports in fault-arrival order, making parallel
// detection's output byte-identical to inline detection
// (Config.DetectWorkers = 0) — the default, and the path every bench/
// workload runs; the pool is the measured option
// (core.detect.pooled_ratio, 1.9× on two cores).
package core

import (
	"fmt"
	"sort"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/trace"
	"gretel/internal/window"
)

var (
	mSnapshotsShed = telemetry.GetCounter("core.snapshots_shed")
	mPairsEvicted  = telemetry.GetCounter("core.pairs_evicted")
	mNodeGaps      = telemetry.GetCounter("core.node_gaps")
	mPairsFlushed  = telemetry.GetCounter("core.pairs_flushed")
	gDetectQueue   = telemetry.GetGauge("core.detect_queue_depth")
)

// detectJob carries one armed snapshot from the receiver to the pool.
// seq is the fault-arrival sequence the collector reorders by.
type detectJob struct {
	seq     uint64
	fault   trace.Event
	kind    FaultKind
	latency time.Duration
	snap    *window.Snapshot
	// degraded is the degraded-node set captured at dispatch time on the
	// receiver goroutine — workers must not read a.degraded themselves.
	degraded []string
	// traceID is the evidence-trace ID assigned at dispatch time on the
	// receiver goroutine (zero outside explain mode), so IDs follow
	// fault-arrival order regardless of worker count.
	traceID uint64
}

// detectResult pairs a finished report with its arrival sequence.
type detectResult struct {
	seq uint64
	rep *Report
}

// startPipeline launches the detect workers and the sequenced collector.
func (a *Analyzer) startPipeline(workers int) {
	a.jobs = make(chan detectJob, a.cfg.DetectBacklog)
	// Workers park finished results here; sized so a worker never blocks
	// behind the collector for longer than one reordering round.
	a.results = make(chan detectResult, a.cfg.DetectBacklog+workers)
	a.collectorDone = make(chan struct{})
	for i := 0; i < workers; i++ {
		a.workersWG.Add(1)
		go a.detectWorker(i)
	}
	go a.collect()
}

// dispatch hands a filled snapshot to the detection stage: inline when
// no worker pool is configured, otherwise enqueued to the pool. A full
// queue blocks the receiver (backpressure) unless DetectShed is set, in
// which case the snapshot is dropped and counted.
func (a *Analyzer) dispatch(fault trace.Event, kind FaultKind, latency time.Duration, snap *window.Snapshot) {
	deg := a.degradedList()
	var traceID uint64
	if a.explain != nil {
		a.traceSeq++
		traceID = a.traceSeq
	}
	if a.jobs == nil {
		rep := a.detect(&a.scratch, fault, kind, latency, snap, a.scratch.wordsOf(snap), traceID)
		snap.Release()
		rep.DegradedNodes = deg
		a.finish(rep)
		return
	}
	job := detectJob{seq: a.nextSeq, fault: fault, kind: kind, latency: latency, snap: snap, degraded: deg, traceID: traceID}
	a.inFlight.Add(1)
	if a.cfg.DetectShed {
		select {
		case a.jobs <- job:
		default:
			a.inFlight.Done()
			a.Stats.SnapshotsShed++
			mSnapshotsShed.Inc()
			snap.Release()
			return
		}
	} else {
		a.jobs <- job
	}
	a.nextSeq++
	gDetectQueue.Add(1)
}

// detectWorker drains the job queue, running Algorithm 2 per snapshot.
// Each worker owns its detection scratch and times its jobs into its own
// span histogram (core.detect.worker<N>).
func (a *Analyzer) detectWorker(id int) {
	defer a.workersWG.Done()
	spans := telemetry.GetHistogram(fmt.Sprintf("core.detect.worker%d", id))
	var sc detectScratch
	for job := range a.jobs {
		gDetectQueue.Add(-1)
		sp := spans.Start()
		rep := a.detect(&sc, job.fault, job.kind, job.latency, job.snap, sc.wordsOf(job.snap), job.traceID)
		job.snap.Release()
		rep.DegradedNodes = job.degraded
		sp.End()
		a.results <- detectResult{seq: job.seq, rep: rep}
	}
}

// collect applies finished reports in fault-arrival order: results that
// overtook an earlier in-flight detection are held until their turn.
func (a *Analyzer) collect() {
	defer close(a.collectorDone)
	held := make(map[uint64]*Report)
	var next uint64
	for r := range a.results {
		held[r.seq] = r.rep
		for {
			rep, ok := held[next]
			if !ok {
				break
			}
			delete(held, next)
			next++
			a.finish(rep)
			a.inFlight.Done()
		}
	}
}

// Close drains the detection pipeline and stops its goroutines (a no-op
// beyond Flush without a worker pool). The analyzer stays usable
// afterwards — later faults are detected inline — and Reports/Stats are
// safe to read once Close returns.
func (a *Analyzer) Close() {
	a.Flush()
	if a.jobs == nil {
		return
	}
	close(a.jobs)
	a.workersWG.Wait()
	close(a.results)
	<-a.collectorDone
	a.jobs = nil
}

// pairSweepEvery amortizes the pairing-state age sweep: one map walk per
// this many events. Must be a power of two.
const pairSweepEvery = 1 << 12

// evictAgedPairs drops request-side pairing state older than PairTTL in
// event time — requests whose responses were lost would otherwise pin
// map entries forever.
func (a *Analyzer) evictAgedPairs(now time.Time) {
	if a.cfg.PairTTL <= 0 {
		return
	}
	cutoff := now.Add(-a.cfg.PairTTL)
	a.Stats.PairsEvicted += agePairs(a.pending, cutoff) + agePairs(a.calls, cutoff)
}

// agePairs drops entries older than the cutoff from one pairing map.
// Returns the number evicted (also added to the telemetry counter, but
// not to Stats: the caller owns its Stats accounting).
func agePairs[K comparable](m map[K]pendingReq, cutoff time.Time) uint64 {
	var n uint64
	for k, p := range m {
		if p.at.Before(cutoff) {
			delete(m, k)
			n++
		}
	}
	if n > 0 {
		mPairsEvicted.Add(n)
	}
	return n
}

// capPairs enforces the MaxPairs size cap on one pairing map by evicting
// the oldest quarter when full — O(n log n) on the rare trip, amortized
// constant per insert. Ties on timestamp break by event sequence so
// eviction is deterministic. Returns the number evicted.
func capPairs[K comparable](m map[K]pendingReq, max int) uint64 {
	if max <= 0 || len(m) < max {
		return 0
	}
	type entry struct {
		k   K
		at  time.Time
		seq uint64
	}
	all := make([]entry, 0, len(m))
	for k, p := range m {
		all = append(all, entry{k, p.at, p.seq})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].at.Equal(all[j].at) {
			return all[i].at.Before(all[j].at)
		}
		return all[i].seq < all[j].seq
	})
	drop := len(all)/4 + 1
	for _, e := range all[:drop] {
		delete(m, e.k)
	}
	mPairsEvicted.Add(uint64(drop))
	return uint64(drop)
}
