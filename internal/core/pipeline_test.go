package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"gretel/internal/trace"
	"gretel/internal/tracestore"
)

// driveFaulty pushes a deterministic multi-fault stream through an
// analyzer and closes it: 30 rounds of a failing op-a run interleaved
// with a failing op-c request, with background filler so every snapshot
// fills mid-stream.
func driveFaulty(cfg Config) *Analyzer {
	return driveFaultyExplain(cfg, nil)
}

// driveFaultyExplain is driveFaulty with an evidence-trace store
// installed when non-nil (explain mode).
func driveFaultyExplain(cfg Config, store *tracestore.Store) *Analyzer {
	a := newAnalyzer(cfg)
	a.SetExplain(store)
	faultyScript(&stream{a: a})
	a.Close()
	return a
}

// faultyScript plays the shared multi-fault stream into a stream
// helper — also recorded as a plain event slice by faultyEvents.
func faultyScript(s *stream) {
	for i := 0; i < 30; i++ {
		id := uint64(i * 10)
		s.rest(get("/list"), 200, id+1, "op-a")
		s.rest(post("/a1"), 200, id+1, "op-a")
		s.rpcCall(rpc("build"), false, id+1, "op-a")
		s.rest(post("/a2"), 500, id+1, "op-a") // fault
		s.filler(3)
		s.rest(post("/c1"), 409, id+2, "op-c") // second fault
		s.filler(10)
	}
	s.filler(40)
}

// faultyEvents records the shared multi-fault script as a plain event
// slice, so the same stream can be replayed through Ingest and
// IngestBatch.
func faultyEvents() []trace.Event {
	var evs []trace.Event
	faultyScript(&stream{emit: func(ev trace.Event) { evs = append(evs, ev) }})
	return evs
}

// serializeReports renders reports to JSON — the byte-identical
// contract covers the serialized form, not just DeepEqual.
func serializeReports(t *testing.T, reps []*Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range reps {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestIngestEntryPointParity pins that the analyzer has one ingest path
// with two doors: the same faulty stream through per-event Ingest and
// through IngestBatch in chunks of 1, 7 (boundaries land mid-exchange)
// and 256 must produce byte-identical serialized reports and equal
// Stats.
func TestIngestEntryPointParity(t *testing.T) {
	evs := faultyEvents()
	base := driveFaulty(Config{Alpha: 32})
	if len(base.Reports()) == 0 {
		t.Fatal("no reports produced")
	}
	want := serializeReports(t, base.Reports())
	for _, chunk := range []int{1, 7, 256} {
		a := newAnalyzer(Config{Alpha: 32})
		for lo := 0; lo < len(evs); lo += chunk {
			a.IngestBatch(evs[lo:min(lo+chunk, len(evs))])
		}
		a.Close()
		if got := serializeReports(t, a.Reports()); !bytes.Equal(got, want) {
			t.Fatalf("IngestBatch(%d): serialized reports differ from per-event Ingest", chunk)
		}
		if a.Stats != base.Stats {
			t.Fatalf("IngestBatch(%d): stats differ:\nIngest:      %+v\nIngestBatch: %+v", chunk, base.Stats, a.Stats)
		}
	}
}

// TestParallelMatchesInlineReports is the determinism contract of the
// concurrent pipeline: the same faulty stream through inline detection
// (DetectWorkers: 0) and a worker pool must produce identical reports —
// candidates, β, θ — in identical (fault-arrival) order. Run under
// -race this also exercises the receiver/worker/collector sharing.
func TestParallelMatchesInlineReports(t *testing.T) {
	inline := driveFaulty(Config{Alpha: 32})
	// A tiny backlog forces the receiver through the blocking
	// backpressure path as well.
	parallel := driveFaulty(Config{Alpha: 32, DetectWorkers: 4, DetectBacklog: 2})

	ri, rp := inline.Reports(), parallel.Reports()
	if len(ri) == 0 {
		t.Fatal("no reports produced")
	}
	if len(ri) != len(rp) {
		t.Fatalf("report counts differ: inline=%d parallel=%d", len(ri), len(rp))
	}
	for i := range ri {
		if !reflect.DeepEqual(*ri[i], *rp[i]) {
			t.Fatalf("report %d differs:\ninline:   %+v\nparallel: %+v", i, *ri[i], *rp[i])
		}
	}
	if inline.Stats != parallel.Stats {
		t.Fatalf("stats differ:\ninline:   %+v\nparallel: %+v", inline.Stats, parallel.Stats)
	}
}

// TestParallelReportCallbackOrder asserts the OnReport callback also
// observes fault-arrival order under a worker pool.
func TestParallelReportCallbackOrder(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 32, DetectWorkers: 4})
	var seen []time.Time
	a.OnReport(func(r *Report) { seen = append(seen, r.Fault.Time) })
	s := &stream{a: a}
	for i := 0; i < 20; i++ {
		s.rest(post("/a2"), 500, uint64(i+1), "op-a")
		s.filler(8)
	}
	s.filler(20)
	a.Close()
	if len(seen) != len(a.Reports()) || len(seen) == 0 {
		t.Fatalf("callback fired %d times, reports %d", len(seen), len(a.Reports()))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Before(seen[i-1]) {
			t.Fatalf("reports out of fault order at %d: %v after %v", i, seen[i], seen[i-1])
		}
	}
}

// TestDetectShed wedges the collector behind a blocking RCA hook so the
// bounded pipeline fills, and asserts the receiver sheds instead of
// stalling, with every armed snapshot accounted for as either a report
// or a shed.
func TestDetectShed(t *testing.T) { shedRun(t, nil) }

// TestDetectShedTraceIDs: a shed snapshot takes no trace ID, so the
// reports that survive carry exactly 1..len(Reports()), each stored.
func TestDetectShedTraceIDs(t *testing.T) {
	store := tracestore.New(0)
	a := shedRun(t, store)
	for i, rep := range a.Reports() {
		if rep.TraceID != uint64(i+1) {
			t.Fatalf("report %d: TraceID %d, want %d (shed %d)", i, rep.TraceID, i+1, a.Stats.SnapshotsShed)
		}
		if tr := store.Get(rep.TraceID); tr == nil || tr.FaultSeq != rep.Fault.Seq {
			t.Fatalf("report %d: trace %d does not resolve to its fault", i, rep.TraceID)
		}
	}
}

// shedRun drives a one-worker, one-slot pool with shedding on and a
// blocked collector until a snapshot is shed, then unblocks it and
// reports one more fault, with explain mode on when store is non-nil.
func shedRun(t *testing.T, store *tracestore.Store) *Analyzer {
	t.Helper()
	block := make(chan struct{})
	a := newAnalyzer(Config{Alpha: 16, DetectWorkers: 1, DetectBacklog: 1, DetectShed: true})
	a.SetExplain(store)
	a.SetRCA(func(r *Report) []RootCause {
		<-block
		return nil
	})
	s := &stream{a: a}
	for i := 0; i < 500 && a.Stats.SnapshotsShed == 0; i++ {
		s.rest(post("/a2"), 500, uint64(i+1), "op-a")
		s.filler(10)
	}
	if a.Stats.SnapshotsShed == 0 {
		t.Fatal("pipeline never shed despite a blocked collector")
	}
	close(block)
	// One more fault once the pool has drained, so a report follows the
	// shed snapshot.
	a.Flush()
	s.rest(post("/a2"), 500, 1000, "op-a")
	s.filler(10)
	a.Close()
	if a.Stats.Reports == 0 {
		t.Fatal("everything shed; expected the drained jobs to report")
	}
	if got := a.Stats.Reports + a.Stats.SnapshotsShed; got != a.Stats.Snapshots {
		t.Fatalf("reports(%d) + shed(%d) = %d, want snapshots(%d)",
			a.Stats.Reports, a.Stats.SnapshotsShed, got, a.Stats.Snapshots)
	}
	return a
}

// TestUsableAfterClose: Close stops the detect pool but the analyzer
// keeps working — pairing and latency state carry over, and a later
// fault is detected inline.
func TestUsableAfterClose(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16, DetectWorkers: 2})
	s := &stream{a: a}
	s.rest(get("/x"), 200, 1, "op")
	a.Close()
	s.rest(post("/a2"), 500, 2, "op-a")
	s.filler(20)
	a.Flush()
	if a.Stats.RESTPairs != 22 {
		t.Fatalf("post-Close ingest broken: RESTPairs=%d, want 22", a.Stats.RESTPairs)
	}
	if len(a.Reports()) != 1 {
		t.Fatalf("post-Close fault produced %d reports, want 1", len(a.Reports()))
	}
	if sums := a.LatencySummaries(); len(sums) != 2 {
		t.Fatalf("summaries for %d APIs, want /x from before Close and /filler from after", len(sums))
	}
}

// TestPairEvictionSizeCap floods the analyzer with requests whose
// responses never arrive and asserts the pairing maps stay bounded.
// The flood spans under two minutes of event time, so only the cap
// evicts.
func TestPairEvictionSizeCap(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	const flood = maxPairs + maxPairs/2
	for i := 1; i <= flood; i++ {
		a.Ingest(trace.Event{Time: at(i), Type: trace.RESTRequest, API: get("/x"), ConnID: uint64(i)})
	}
	if len(a.pending) > maxPairs {
		t.Fatalf("pending grew to %d despite the %d cap", len(a.pending), maxPairs)
	}
	for i := 1; i <= flood; i++ {
		a.Ingest(trace.Event{Time: at(flood + i), Type: trace.RPCCall, API: rpc("build"), MsgID: "m" + itoa(i)})
	}
	if len(a.calls) > maxPairs {
		t.Fatalf("calls grew to %d despite the %d cap", len(a.calls), maxPairs)
	}
	if a.Stats.PairsEvicted == 0 {
		t.Fatal("no evictions counted")
	}
}

// TestPairEvictionTTL ages out request-side state past the 10-minute
// pairTTL while keeping fresh requests pairable: requests a second
// apart, so that at the first amortized sweep the oldest are over an
// hour old.
func TestPairEvictionTTL(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	const n = 5000 // > pairSweepEvery so the amortized sweep triggers
	for i := 1; i <= n; i++ {
		a.Ingest(trace.Event{Time: at(i * 1000), Type: trace.RESTRequest, API: get("/x"), ConnID: uint64(i)})
	}
	if a.Stats.PairsEvicted == 0 {
		t.Fatal("TTL sweep never evicted")
	}
	if len(a.pending) >= n {
		t.Fatalf("pending holds all %d requests", len(a.pending))
	}
	// The most recent request still pairs with its response.
	a.Ingest(trace.Event{Time: at(n*1000 + 5), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: uint64(n)})
	if a.Stats.RESTPairs != 1 {
		t.Fatalf("recent request did not pair: RESTPairs=%d", a.Stats.RESTPairs)
	}
	// A response for an evicted request is simply unmatched.
	a.Ingest(trace.Event{Time: at(n*1000 + 6), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: 1})
	if a.Stats.RESTPairs != 1 {
		t.Fatalf("evicted request paired anyway: RESTPairs=%d", a.Stats.RESTPairs)
	}
}

// TestPairEvictionLedger holds pairing-state eviction to an exact ledger
// under cap and TTL pressure together: every inserted request is still
// pending, paired, or counted in Stats.PairsEvicted — none lost, none
// counted twice. A response for a cap-evicted request must not form a
// phantom pair while a surviving request still pairs.
func TestPairEvictionLedger(t *testing.T) {
	a := newAnalyzer(Config{Alpha: 16})
	var inserted uint64
	ledger := func(when string) {
		t.Helper()
		pending := uint64(len(a.pending) + len(a.calls))
		paired := a.Stats.RESTPairs + a.Stats.RPCPairs
		if got := pending + paired + a.Stats.PairsEvicted; got != inserted {
			t.Fatalf("%s: pending(%d) + paired(%d) + evicted(%d) = %d, want %d inserted",
				when, pending, paired, a.Stats.PairsEvicted, got, inserted)
		}
	}

	// Cap pressure: a flood of requests whose responses never arrive,
	// a millisecond apart, so all are younger than pairTTL when the cap
	// trips and at every sweep the flood crosses.
	const flood = maxPairs + maxPairs/2
	for i := 1; i <= flood; i++ {
		a.Ingest(trace.Event{Time: at(i), Type: trace.RESTRequest, API: get("/x"), ConnID: uint64(i)})
		a.Ingest(trace.Event{Time: at(i), Type: trace.RPCCall, API: rpc("build"), MsgID: "m" + itoa(i)})
		inserted += 2
	}
	if a.Stats.PairsEvicted == 0 || len(a.pending) > maxPairs || len(a.calls) > maxPairs {
		t.Fatalf("cap never bit: evicted=%d pending=%d calls=%d", a.Stats.PairsEvicted, len(a.pending), len(a.calls))
	}
	ledger("after the flood")

	// The oldest request went with the first cap trip; the newest survived.
	a.Ingest(trace.Event{Time: at(flood + 5), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: 1})
	if a.Stats.RESTPairs != 0 {
		t.Fatalf("phantom pair for a cap-evicted request: RESTPairs=%d", a.Stats.RESTPairs)
	}
	a.Ingest(trace.Event{Time: at(flood + 6), Type: trace.RESTResponse, API: get("/x"), Status: 200, ConnID: flood})
	if a.Stats.RESTPairs != 1 {
		t.Fatalf("surviving request did not pair: RESTPairs=%d", a.Stats.RESTPairs)
	}
	ledger("after the late responses")

	// TTL pressure: eleven minutes later, answered exchanges carry the
	// event count across the next amortized sweep. The sweep must evict
	// the flood's survivors — exactly them — and nothing that was
	// answered.
	survivors := uint64(len(a.pending) + len(a.calls))
	evicted := a.Stats.PairsEvicted
	s := &stream{a: a, conn: flood, ms: flood + int(pairTTL/time.Millisecond) + 60000}
	for next := (a.Stats.Events/pairSweepEvery + 1) * pairSweepEvery; a.Stats.Events < next; {
		s.rest(get("/y"), 200, 1, "op")
		inserted++
	}
	if got := a.Stats.PairsEvicted - evicted; got != survivors || len(a.pending)+len(a.calls) != 0 {
		t.Fatalf("TTL sweep evicted %d of %d survivors, %d still pending",
			got, survivors, len(a.pending)+len(a.calls))
	}
	ledger("after the sweep")
}
