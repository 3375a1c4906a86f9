package e2e

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gretel/bench/tape"
	"gretel/internal/agent"
	"gretel/internal/experiments"
	"gretel/internal/faults"
	"gretel/internal/fingerprint"
	"gretel/internal/openstack"
	"gretel/internal/replay"
	"gretel/internal/tempest"
	"gretel/internal/trace"
	"gretel/internal/wal"
)

// Sizes fixes how much input set-up builds. Default is what the
// benchmark measures with; tests shrink it.
type Sizes struct {
	// SimSeconds is the simulated length of the packet tape.
	SimSeconds int
	// FaultGap is the simulated time between injected faults.
	FaultGap time.Duration
	// Parallel is the number of concurrent Tempest tests sustained.
	Parallel int
	// CleanEvents is the length of direct-clean's fault-free body,
	// CleanTailEvents of the faulty tail that follows it untimed.
	// StormEvents is the length of direct-storm's stream. FaultEvery
	// injects one fault slot per that many messages in the tail and the
	// storm.
	CleanEvents, CleanTailEvents int
	StormEvents, FaultEvery      int
	// PacedRate is paced-wire's offered load in events per second.
	PacedRate float64
}

// DefaultSizes is the measured configuration. The tape is 60 simulated
// seconds at 100 parallel tests with one fault per 0.25 s: about 144 K
// packets, 92 K events and 240 faults (one per ~390 events, inside
// Fig 8c's 1/100 to 1/2000 range, and enough reports in one lap for a
// p95 of its own). direct-storm and direct-clean's tail
// run at Fig 8c's densest point, one fault slot per 100 messages.
var DefaultSizes = Sizes{
	SimSeconds: 60, FaultGap: 250 * time.Millisecond, Parallel: 100,
	CleanEvents: 400000, CleanTailEvents: 100000,
	StormEvents: 300000, FaultEvery: 100,
	PacedRate: 40000,
}

// stormStateEvery events is 50 ms of the synthetic stream's virtual time.
const stormStateEvery = 2500

// faultKey identifies a fault message the way a passive monitor can:
// the REST connection it travelled on (RPC faults surface through a
// relayed REST error, so the connection id is always present).
type faultKey struct {
	connID uint64
	msgID  string
}

type opRef struct {
	id   uint64
	name string
}

// Inputs is everything a workload consumes, built once per run.
type Inputs struct {
	Seed  int64
	Sizes Sizes
	Lib   *fingerprint.Library

	// Tape is the recorded wire traffic; Events is the tape parsed once by
	// an agent.Monitor, EventPkt[i] the tape index of the packet that
	// completed event i.
	Tape     *tape.Tape
	Events   []trace.Event
	EventPkt []int32
	// TapeEvents is len(Events), kept when a workload drops the slice.
	TapeEvents int
	// truth maps a fault message to the operation instance that contained
	// it; injected is the set of instance ids a fault rule fired in.
	truth    map[faultKey]opRef
	injected map[uint64]bool

	// Clean is direct-clean's stream: Sizes.CleanEvents fault-free events,
	// then the faulty tail. Storm is direct-storm's.
	Clean, Storm []trace.Event
	// synthFaults is the number of operations a fault was injected into
	// on the workload's synthetic stream.
	synthFaults int
	// StormStates are distributed-state updates for direct-storm, one per
	// stormStateEvery events, so rca has windows to judge.
	StormStates []tape.State

	// WALDir holds the tape's events pre-written with wal.Log.AppendBatch.
	WALDir string
}

// needs says which parts of the input a workload reads; set-up
// builds only those, so setup_s is the cost of the workload's own inputs.
type needs struct{ tape, events, wal, clean, storm bool }

var workloadNeeds = map[string]needs{
	"wire-steady":    {tape: true},
	"paced-wire":     {tape: true},
	"stream-durable": {tape: true, events: true},
	"wal-recover":    {tape: true, events: true, wal: true},
	"direct-clean":   {clean: true},
	"direct-storm":   {storm: true},
}

// BuildInputs is the benchmark's set-up: simulate and record the tape,
// parse it, synthesize the direct streams, build the fingerprint
// library as cmd/gretel does, and pre-write the WAL. The simulator is
// the load generator and runs only here, never in a timed region.
// A traced run keeps the parsed events whatever the workload, for its
// stage-isolated runs.
func BuildInputs(seed int64, sz Sizes, workload, workDir string, traced bool) (*Inputs, error) {
	need, ok := workloadNeeds[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	in := &Inputs{Seed: seed, Sizes: sz}
	// The catalog is the deployment's API surface, not traffic: it stays
	// the canonical seed-1 catalog (experiments.BenchLibrary's) while the
	// seed varies which tests run when and where the faults land.
	cat := tempest.NewCatalog(1)
	in.Lib = fingerprint.NewLibrary()
	for _, test := range cat.Tests {
		in.Lib.AddAPIs(test.Op.Name, test.Op.Category.String(), test.Op.APIs())
	}
	if need.tape {
		in.recordTape(cat)
	}
	// experiments.BenchOps is every sixth test of the same seed-1 catalog,
	// so the library holds a fingerprint for every operation the synthetic
	// streams run.
	ops := experiments.BenchOps()
	if need.clean {
		in.Clean = replay.Synthesize(replay.StreamConfig{Ops: ops, Concurrency: 200, Events: sz.CleanEvents, Seed: seed})
		tail := replay.Synthesize(replay.StreamConfig{
			Ops: ops, Concurrency: 200, Events: sz.CleanTailEvents, FaultEvery: sz.FaultEvery, Seed: seed ^ 0x7a11,
		})
		in.Clean = append(in.Clean, continueStream(in.Clean, tail)...)
	}
	if need.storm {
		in.Storm = replay.Synthesize(replay.StreamConfig{
			Ops: ops, Concurrency: 400, Events: sz.StormEvents, FaultEvery: sz.FaultEvery, Seed: seed,
		})
		// The synthetic stream names its nodes as the reference deployment
		// does, so an idle deployment's fabric supplies the node inventory
		// and resource samples.
		fabric := openstack.NewDeployment(openstack.Config{Seed: seed}).Fabric
		for i := 0; i < len(in.Storm); i += stormStateEvery {
			in.StormStates = append(in.StormStates, tape.State{After: i, Update: agent.CollectState(fabric, in.Storm[i].Time)})
		}
	}
	faulted := make(map[uint64]bool)
	for _, ev := range in.stream(workload) {
		if ev.Faulty() {
			faulted[ev.OpID] = true
		}
	}
	in.synthFaults = len(faulted)
	if need.wal {
		in.WALDir = filepath.Join(workDir, "wal-prewritten")
		if err := prewriteWAL(in.WALDir, in.Events); err != nil {
			return nil, err
		}
	}
	if !need.events && !traced {
		in.Events, in.EventPkt = nil, nil
	}
	return in, nil
}

// continueStream renumbers tail, which Synthesize built as a stream of
// its own, so that it carries on where body ends: later sequence numbers
// and capture times, and connection, message and operation ids that
// collide with nothing body left pending.
func continueStream(body, tail []trace.Event) []trace.Event {
	last := body[len(body)-1]
	gap := last.Time.Sub(body[0].Time) + body[1].Time.Sub(body[0].Time)
	const idShift = 1 << 40
	for i := range tail {
		ev := &tail[i]
		ev.Seq += last.Seq
		ev.Time = ev.Time.Add(gap)
		ev.OpID += idShift
		if ev.ConnID != 0 {
			ev.ConnID += idShift
		}
		if ev.MsgID != "" {
			ev.MsgID = "t" + ev.MsgID
		}
	}
	return tail
}

// faultStep picks a mid-operation state-changing REST step to fail, as
// cmd/gretel-agent does.
func faultStep(op *openstack.Operation) int {
	var idxs []int
	for i, s := range op.Steps {
		if !s.Noise && s.API.Kind == trace.REST && s.API.StateChanging() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[len(idxs)*3/5]
}

func (in *Inputs) recordTape(cat *tempest.Catalog) {
	sz := in.Sizes
	// Which tests run and which get a fault is drawn from fixed
	// sequences, so every seed's tape is the same mix of operations; the
	// seed drives the deployment itself — think and processing times,
	// optional steps, retries, identifiers — and so every interleaving.
	// With only ~240 faults on a tape, letting the seed also pick them
	// made report lag differ more between seeds than any change would.
	// The faults draw from a sequence of their own: the pool draws whenever
	// a test ends, which depends on the seed's timing, and on a shared
	// sequence that moved the fault draws too — the analyzer caches one
	// pruned fingerprint per (candidate, offending API) it has seen, so
	// other faults meant a retained heap 30 % apart between seeds.
	rng := rand.New(rand.NewSource(0xa9e47))
	faultRng := rand.New(rand.NewSource(0xfa17))
	d := openstack.NewDeployment(openstack.Config{
		Seed:            in.Seed,
		HeartbeatPeriod: 10 * time.Second,
		ThinkMin:        50 * time.Millisecond,
		ThinkMax:        150 * time.Millisecond,
	})
	plan := faults.NewPlan()
	d.Injector = plan

	t := tape.New()
	d.Fabric.Tap(t.Append)
	d.Sim.Every(5*time.Second, func() bool { return false }, func() {
		t.AppendState(agent.CollectState(d.Fabric, d.Sim.Now()))
	})
	tempest.SustainPool(d, cat, sz.Parallel, rng)

	duration := time.Duration(sz.SimSeconds) * time.Second
	var faulted []*openstack.Instance
	for at := sz.FaultGap; at < duration; at += sz.FaultGap {
		d.Sim.After(at, func() {
			test := cat.Tests[faultRng.Intn(len(cat.Tests))]
			idx := faultStep(test.Op)
			if idx < 0 {
				return
			}
			inst := d.Start(test.Op, nil)
			plan.Add(faults.Rule{
				OpID: inst.ID, StepIndex: idx, Once: true,
				Outcome: openstack.Outcome{Status: 500, ErrText: "Internal Server Error: injected fault"},
			})
			faulted = append(faulted, inst)
		})
	}
	// The tape ends when the simulated time is up, with operations still in
	// flight: draining them would append a long thin tail to the schedule,
	// and an open loop paced on it would offer its load unevenly.
	d.Sim.RunUntil(d.Sim.Now().Add(duration))

	in.Tape = t
	in.injected = make(map[uint64]bool)
	for _, inst := range faulted {
		if inst.FailedStep >= 0 {
			in.injected[inst.ID] = true
		}
	}

	// Parse once. The monitor runs in its production shape (no ground
	// truth); the benchmark keeps its own table for scoring afterwards.
	in.truth = make(map[faultKey]opRef)
	in.Events = make([]trace.Event, 0, t.Len()*2/3)
	in.EventPkt = make([]int32, 0, t.Len()*2/3)
	cur := 0
	mon := agent.NewMonitor("agent", func(ev trace.Event) {
		in.Events = append(in.Events, ev)
		in.EventPkt = append(in.EventPkt, int32(cur))
		if ev.Faulty() {
			id, name := d.GroundTruth(ev.ConnID, ev.MsgID)
			in.truth[faultKey{ev.ConnID, ev.MsgID}] = opRef{id, name}
		}
	}, nil)
	for cur = 0; cur < t.Len(); cur++ {
		mon.HandlePacket(t.Packet(cur))
	}
	in.TapeEvents = len(in.Events)
}

func prewriteWAL(dir string, events []trace.Event) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{Dir: dir, RetainBytes: -1})
	if err != nil {
		return err
	}
	const batch = 256
	for i := 0; i < len(events); i += batch {
		end := min(i+batch, len(events))
		if _, err := l.AppendBatch(events[i:end]); err != nil {
			l.Close()
			return fmt.Errorf("pre-writing wal: %w", err)
		}
	}
	if got := l.Stats().Appended; got != uint64(len(events)) {
		l.Close()
		return fmt.Errorf("pre-writing wal: appended %d of %d events", got, len(events))
	}
	return l.Close()
}

// pktIndexAt returns the last tape packet captured at or before ns.
func (in *Inputs) pktIndexAt(ns int64) int {
	t := in.Tape
	return sort.Search(t.Len(), func(i int) bool { return t.TimeNs(i) > ns }) - 1
}

// eventIndexAt returns the last parsed event captured at or before ns.
func (in *Inputs) eventIndexAt(ns int64) int {
	return sort.Search(len(in.Events), func(i int) bool { return in.Events[i].Time.UnixNano() > ns }) - 1
}
