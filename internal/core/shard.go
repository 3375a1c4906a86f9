// Sharded, batched ingest front-end: IngestBatch partitions the keyed
// per-event state — request/response pairing maps, per-API latency
// summaries and level-shift detectors, TTL/cap eviction — across N
// shards (Config.IngestShards) and fans a batch out to per-shard
// workers. Shard outputs are re-sequenced by event order before the
// global dual window and the detection stage, so Algorithm 2 sees
// exactly the arrival-order stream the classic inline path feeds it:
// reports and explain-mode evidence traces are byte-identical across
// shard counts.
//
// Two phases per batch, each closed by a barrier:
//
//	A (pairing)  — events route to shards by pairing key (REST: ConnID,
//	               RPC: MsgID), so a request and its response always
//	               meet on the same shard, in event order. Each shard
//	               writes {latency, havePair} into a disjoint slot of
//	               the outcomes array.
//	B (latency)  — paired non-faulty responses route to shards by API,
//	               so each API's summary and level-shift detector see
//	               their observations whole and in event order — the
//	               property that keeps perf alarms (and hence reports)
//	               identical across shard counts.
//
// The spine then applies outcomes in original event order: pair
// counters, window pushes, fault checks, snapshot arming. IngestBatch
// is synchronous — both barriers resolve before it returns — so state
// reads between calls (Stats, LatencySummaries, NodeGap) need no
// locks, and parallelism exists only within a batch.
//
// Eviction stays deterministic in the sense the tests pin: TTL and cap
// eviction only ever drop request-side entries whose response has not
// arrived. Whenever responses arrive within PairTTL and the maps stay
// under MaxPairs, no entry an outcome depends on is evicted, so reports
// are byte-identical across shard counts even though per-shard caps
// (ceil(MaxPairs/N)) trip at different fill levels.
package core

import (
	"fmt"
	"sync"
	"time"

	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

var (
	mIngestBatches = telemetry.GetCounter("core.ingest_batches")
	gShardQueue    = telemetry.GetGauge("core.shard_queue_depth")
)

// ingestOutcome is one event's phase results, written by at most one
// shard per phase into its own slot — disjoint indices, no locks.
type ingestOutcome struct {
	latency  time.Duration
	alarms   uint16
	havePair bool
	armPerf  bool
}

// ingestShard owns one partition of the pairing maps and per-API
// latency state. Its worker goroutine runs the closures the spine
// sends on work; all shard state is touched only inside them (or by
// the spine between barriers, which the WaitGroup orders).
type ingestShard struct {
	pending map[uint64]pendingReq // REST pairing by connection
	calls   map[string]pendingReq // RPC pairing by message id
	lat     latTrack
	// maxPairs is this shard's slice of Config.MaxPairs
	// (ceil(MaxPairs/N); non-positive disables the cap, like inline).
	maxPairs int
	// evicted counts TTL/cap evictions in the current batch; the spine
	// zeroes it before phase A and folds it into Stats after the barrier.
	evicted uint64
	work    chan func()
	spans   *telemetry.Histogram
}

// startShards brings up the ingest shards and their workers.
func (a *Analyzer) startShards(n int) {
	perShard := a.cfg.MaxPairs
	if perShard > 0 {
		perShard = (perShard + n - 1) / n
	}
	a.shards = make([]*ingestShard, n)
	a.pairIdx = make([][]int32, n)
	a.latIdx = make([][]int32, n)
	for i := range a.shards {
		s := &ingestShard{
			pending:  make(map[uint64]pendingReq),
			calls:    make(map[string]pendingReq),
			lat:      newLatTrack(a.cfg.Latency),
			maxPairs: perShard,
			work:     make(chan func(), 1),
			spans:    telemetry.GetHistogram(fmt.Sprintf("core.ingest.shard%d", i)),
		}
		a.shards[i] = s
		a.shardsWG.Add(1)
		go s.run(&a.shardsWG)
	}
}

func (s *ingestShard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for fn := range s.work {
		sp := s.spans.Start()
		fn()
		sp.End()
		gShardQueue.Add(-1)
	}
}

// stopShards stops the shard workers. Shard state stays readable
// (LatencySummaries, LatencyDetector); later Ingest calls fall back to
// the inline maps.
func (a *Analyzer) stopShards() {
	if a.shards == nil || a.shardsOff {
		return
	}
	for _, s := range a.shards {
		close(s.work)
	}
	a.shardsWG.Wait()
	a.shardsOff = true
}

// pairBatch runs phase A for this shard's slice of the batch: the same
// pairing switch as the inline path, over this shard's maps, writing
// outcomes into disjoint slots.
func (s *ingestShard) pairBatch(batch []trace.Event, idxs []int32, out []ingestOutcome) {
	for _, i := range idxs {
		ev := &batch[i]
		switch ev.Type {
		case trace.RESTRequest:
			s.evicted += capPairs(s.pending, s.maxPairs)
			s.pending[ev.ConnID] = pendingReq{ev.Time, ev.Seq, ev.DstNode}
		case trace.RESTResponse:
			if req, ok := s.pending[ev.ConnID]; ok {
				delete(s.pending, ev.ConnID)
				out[i].latency = ev.Time.Sub(req.at)
				out[i].havePair = true
			}
		case trace.RPCCall:
			if ev.MsgID != "" {
				s.evicted += capPairs(s.calls, s.maxPairs)
				s.calls[ev.MsgID] = pendingReq{ev.Time, ev.Seq, ev.DstNode}
			}
		case trace.RPCReply:
			if req, ok := s.calls[ev.MsgID]; ok {
				delete(s.calls, ev.MsgID)
				out[i].latency = ev.Time.Sub(req.at)
				out[i].havePair = true
			}
		}
	}
}

// latBatch runs phase B for this shard's slice: per-API latency
// observation for paired non-faulty responses, in event order.
func (s *ingestShard) latBatch(batch []trace.Event, idxs []int32, out []ingestOutcome, cfg *Config) {
	for _, i := range idxs {
		ev := &batch[i]
		alarms, armPerf := s.lat.observe(ev.API, ev.Time, out[i].latency, cfg)
		out[i].alarms = uint16(alarms)
		out[i].armPerf = armPerf
	}
}

// IngestBatch processes a batch of events through the sharded
// front-end. Like Ingest it must be called from a single goroutine;
// without shards (or after Close stopped them) it is the inline path over
// the batch, read in place. The batch slice is neither retained nor written.
func (a *Analyzer) IngestBatch(evs []trace.Event) {
	if len(evs) == 0 {
		return
	}
	if a.capture != nil && !a.capturing {
		a.capturing = true
		defer a.endCapture()
		a.captureEvents(evs)
	}
	if a.shards == nil || a.shardsOff {
		for i := range evs {
			a.ingestOne(&evs[i])
		}
		return
	}
	mIngestBatches.Inc()
	n := len(evs)
	if cap(a.batchBuf) < n {
		a.batchBuf = make([]trace.Event, n)
		a.outcomes = make([]ingestOutcome, n)
	}
	batch := a.batchBuf[:n]
	copy(batch, evs)
	outs := a.outcomes[:n]
	for i := range outs {
		outs[i] = ingestOutcome{}
	}

	// Sequencing runs on the spine so Seq assignment matches the inline
	// path exactly. A pairSweepEvery boundary inside the batch schedules
	// one TTL sweep on every shard, cut off at that event's time.
	mEventsIngested.Add(uint64(n))
	var sweep bool
	var cutoff time.Time
	for i := range batch {
		a.Stats.Events++
		a.Stats.Bytes += uint64(batch[i].WireBytes)
		if batch[i].Seq == 0 {
			batch[i].Seq = a.Stats.Events
		}
		if a.cfg.PairTTL > 0 && a.Stats.Events&(pairSweepEvery-1) == 0 {
			sweep = true
			cutoff = batch[i].Time.Add(-a.cfg.PairTTL)
		}
	}

	// Phase A: partition by pairing key and fan out.
	ns := uint64(len(a.shards))
	for si := range a.pairIdx {
		a.pairIdx[si] = a.pairIdx[si][:0]
	}
	for i := range batch {
		ev := &batch[i]
		var h uint64
		switch ev.Type {
		case trace.RESTRequest, trace.RESTResponse:
			h = hashU64(ev.ConnID)
		case trace.RPCCall, trace.RPCReply:
			if ev.MsgID == "" {
				continue
			}
			h = hashString(ev.MsgID)
		default:
			continue
		}
		si := int(h % ns)
		a.pairIdx[si] = append(a.pairIdx[si], int32(i))
	}
	for si, s := range a.shards {
		s.evicted = 0
		if len(a.pairIdx[si]) == 0 && !sweep {
			continue
		}
		sh, idxs := s, a.pairIdx[si]
		a.batchWG.Add(1)
		gShardQueue.Add(1)
		sh.work <- func() {
			defer a.batchWG.Done()
			sh.pairBatch(batch, idxs, outs)
			if sweep {
				sh.evicted += agePairs(sh.pending, cutoff) + agePairs(sh.calls, cutoff)
			}
		}
	}
	a.batchWG.Wait()
	for _, s := range a.shards {
		a.Stats.PairsEvicted += s.evicted
	}

	// Phase B: partition paired non-faulty responses by API and fan out.
	for si := range a.latIdx {
		a.latIdx[si] = a.latIdx[si][:0]
	}
	for i := range batch {
		if outs[i].havePair && !batch[i].Faulty() {
			si := int(hashAPI(batch[i].API) % ns)
			a.latIdx[si] = append(a.latIdx[si], int32(i))
		}
	}
	for si, s := range a.shards {
		if len(a.latIdx[si]) == 0 {
			continue
		}
		sh, idxs := s, a.latIdx[si]
		a.batchWG.Add(1)
		gShardQueue.Add(1)
		sh.work <- func() {
			defer a.batchWG.Done()
			sh.latBatch(batch, idxs, outs, &a.cfg)
		}
	}
	a.batchWG.Wait()

	// Spine: apply outcomes in original event order — the exact
	// sequencing the inline path feeds the window and detection stage.
	for i := range batch {
		ev := batch[i]
		o := &outs[i]
		if o.havePair {
			switch ev.Type {
			case trace.RESTResponse:
				a.Stats.RESTPairs++
				mRESTPairs.Inc()
			case trace.RPCReply:
				a.Stats.RPCPairs++
				mRPCPairs.Inc()
			}
		}
		a.win.Push(ev)
		if ev.Faulty() {
			a.Stats.Faults++
			mFaultsOper.Inc()
			if ev.Type == trace.RESTResponse || a.cfg.SnapshotOnRPCErrors {
				a.armSnapshot(ev, Operational, 0)
			}
		}
		if o.alarms > 0 {
			a.Stats.PerfAlarms += uint64(o.alarms)
			mFaultsPerf.Add(uint64(o.alarms))
			if o.armPerf {
				a.armSnapshot(ev, Performance, o.latency)
			}
		}
	}
}

// hashU64 mixes a ConnID into a shard hash (splitmix64 finalizer) —
// stable across runs, unlike map iteration, so shard routing is
// deterministic.
func hashU64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString hashes an RPC MsgID (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashAPI hashes an API identity for phase-B routing — the same
// function LatencyDetector uses to find the owning shard.
func hashAPI(api trace.API) uint64 {
	h := uint64(fnvOffset)
	h ^= uint64(api.Service)
	h *= fnvPrime
	h ^= uint64(api.Kind)
	h *= fnvPrime
	for i := 0; i < len(api.Method); i++ {
		h ^= uint64(api.Method[i])
		h *= fnvPrime
	}
	h ^= 0xff // separator: Method/Path boundary must shift the hash
	h *= fnvPrime
	for i := 0; i < len(api.Path); i++ {
		h ^= uint64(api.Path[i])
		h *= fnvPrime
	}
	return h
}

// latShard returns the shard owning an API's latency state, or nil in
// inline mode.
func (a *Analyzer) latShard(api trace.API) *ingestShard {
	if a.shards == nil {
		return nil
	}
	return a.shards[int(hashAPI(api)%uint64(len(a.shards)))]
}
