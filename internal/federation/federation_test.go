package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gretel/internal/core"
)

// --- Assign (rendezvous hashing) ---------------------------------------

func TestAssignDeterministicAndOrderIndependent(t *testing.T) {
	members := []string{"a", "b", "c"}
	reversed := []string{"c", "b", "a"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("agent-%d", i)
		got := Assign(key, members)
		if got == "" {
			t.Fatalf("Assign(%q) returned empty member", key)
		}
		if again := Assign(key, members); again != got {
			t.Fatalf("Assign(%q) not deterministic: %q then %q", key, got, again)
		}
		if rev := Assign(key, reversed); rev != got {
			t.Fatalf("Assign(%q) depends on member order: %q vs %q", key, got, rev)
		}
	}
	if Assign("anything", nil) != "" {
		t.Fatal("Assign with no members should return empty")
	}
}

func TestAssignSpreadsKeys(t *testing.T) {
	members := []string{"a", "b", "c"}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[Assign(fmt.Sprintf("agent-%d", i), members)]++
	}
	for _, m := range members {
		// A grossly skewed hash would defeat the partitioning; allow wide
		// slack (expected ~1000 each).
		if counts[m] < keys/6 {
			t.Fatalf("member %q owns only %d/%d keys: %v", m, counts[m], keys, counts)
		}
	}
}

// TestAssignMinimalDisruption is the rendezvous-hashing property the
// failover story leans on: when a member dies, only its keys move; when
// it recovers, exactly those keys move back.
func TestAssignMinimalDisruption(t *testing.T) {
	full := []string{"a", "b", "c"}
	without := []string{"a", "b"}
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("agent-%d", i)
		before := Assign(key, full)
		after := Assign(key, without)
		if before != "c" && after != before {
			t.Fatalf("key %q moved from %q to %q though its owner survived", key, before, after)
		}
		if before == "c" {
			moved++
			if after == "c" || after == "" {
				t.Fatalf("key %q kept dead owner: %q", key, after)
			}
		}
		if restored := Assign(key, full); restored != before {
			t.Fatalf("key %q did not move back after recovery: %q vs %q", key, restored, before)
		}
	}
	if moved == 0 {
		t.Fatal("degenerate test: no keys were owned by the removed member")
	}
}

// --- Merger -------------------------------------------------------------

func env(member string, epoch, seq uint64, atMs int) Envelope {
	return Envelope{
		Member: member,
		Epoch:  epoch,
		Seq:    seq,
		At:     time.Unix(0, int64(atMs)*int64(time.Millisecond)),
		Report: json.RawMessage(fmt.Sprintf(`{"m":%q,"seq":%d}`, member, seq)),
	}
}

func TestMergerOrdersAcrossMembers(t *testing.T) {
	var got []Envelope
	m := NewMerger(MergerConfig{Window: 50 * time.Millisecond, Emit: func(e Envelope) { got = append(got, e) }})

	// Two members interleaved out of global order but each in its own
	// seq order, all within the reorder window.
	m.Add(env("b", 1, 1, 20))
	m.Add(env("a", 1, 1, 10))
	m.Add(env("b", 1, 2, 40))
	m.Add(env("a", 1, 2, 30))
	m.Flush()

	want := []struct {
		member string
		seq    uint64
	}{{"a", 1}, {"b", 1}, {"a", 2}, {"b", 2}}
	if len(got) != len(want) {
		t.Fatalf("emitted %d envelopes, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Member != w.member || got[i].Seq != w.seq {
			t.Fatalf("position %d: got (%s,%d), want (%s,%d)", i, got[i].Member, got[i].Seq, w.member, w.seq)
		}
	}
	st := m.Stats()
	if st.Merged != 4 || st.Late != 0 || st.Dups != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMergerTieBreakDeterministic(t *testing.T) {
	run := func(order []Envelope) []Envelope {
		var got []Envelope
		m := NewMerger(MergerConfig{Window: time.Second, Emit: func(e Envelope) { got = append(got, e) }})
		for _, e := range order {
			m.Add(e)
		}
		m.Flush()
		return got
	}
	// Same At on every envelope: order must come out (member, epoch, seq)
	// regardless of arrival order.
	a := run([]Envelope{env("b", 1, 1, 10), env("a", 2, 1, 10), env("a", 1, 1, 10)})
	b := run([]Envelope{env("a", 1, 1, 10), env("b", 1, 1, 10), env("a", 2, 1, 10)})
	for i := range a {
		if a[i].Member != b[i].Member || a[i].Epoch != b[i].Epoch || a[i].Seq != b[i].Seq {
			t.Fatalf("order not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Member != "a" || a[0].Epoch != 1 || a[1].Epoch != 2 || a[2].Member != "b" {
		t.Fatalf("tie-break order wrong: %+v", a)
	}
}

func TestMergerLateAndDup(t *testing.T) {
	var got []Envelope
	m := NewMerger(MergerConfig{Window: 10 * time.Millisecond, Emit: func(e Envelope) { got = append(got, e) }})

	m.Add(env("a", 1, 1, 100)) // watermark -> 90ms
	m.Add(env("a", 1, 1, 100)) // dup: same (member, epoch) seq
	m.Add(env("b", 1, 1, 50))  // behind the watermark: late, emitted immediately
	m.Flush()

	st := m.Stats()
	if st.Dups != 1 {
		t.Fatalf("dups = %d, want 1", st.Dups)
	}
	if st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	if st.Merged != 2 || len(got) != 2 {
		t.Fatalf("merged = %d, emitted = %d, want 2", st.Merged, len(got))
	}
	// Late envelope came out first (immediately), held one on Flush.
	if got[0].Member != "b" || got[1].Member != "a" {
		t.Fatalf("emit order: %s then %s", got[0].Member, got[1].Member)
	}
	// A new epoch is a new incarnation: seq 1 is admissible again.
	m.Add(env("a", 2, 1, 200))
	m.Flush()
	if st := m.Stats(); st.Dups != 1 || st.Merged != 3 {
		t.Fatalf("after epoch bump: %+v", st)
	}
}

func TestMergerAdvanceToDrainsQuiescentStream(t *testing.T) {
	var got []Envelope
	m := NewMerger(MergerConfig{Window: time.Hour, Emit: func(e Envelope) { got = append(got, e) }})
	m.Add(env("a", 1, 1, 10))
	if len(got) != 0 {
		t.Fatal("released before watermark")
	}
	m.AdvanceTo(time.Unix(0, int64(5*time.Millisecond)))
	if len(got) != 0 {
		t.Fatal("released by a watermark behind the envelope")
	}
	m.AdvanceTo(time.Unix(0, int64(15*time.Millisecond)))
	if len(got) != 1 {
		t.Fatalf("clock-driven watermark did not drain: %d emitted", len(got))
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d", m.Pending())
	}
}

// --- ReportLog ----------------------------------------------------------

// logReport records a synthetic report whose DetectedAt is id
// milliseconds past now — wall-clock anchored because the coordinator's
// watermark advances with the wall clock, and id-ordered (successive
// calls are microseconds apart, so the millisecond id gaps dominate) so
// merge-order assertions can use trace ids.
func logReport(l *ReportLog, id int) {
	rep := &core.Report{TraceID: uint64(id), DetectedAt: time.Now().Add(time.Duration(id) * time.Millisecond)}
	l.Record(rep)
}

// TestCoordinatorMergedRingPastCap: past mergedCap the retained stream
// keeps the newest envelopes, still oldest first, and counts every one
// it overwrote.
func TestCoordinatorMergedRingPastCap(t *testing.T) {
	c := &Coordinator{members: map[string]*memberState{}, agents: map[string]string{}}
	c.merger = NewMerger(MergerConfig{Window: 50 * time.Millisecond, Emit: c.emit})
	const extra = 1000
	for i := 1; i <= mergedCap+extra; i++ {
		member := []string{"a", "b"}[i%2]
		c.merger.Add(env(member, 1, uint64(i), i))
	}
	c.merger.Flush()

	got := c.Merged()
	if len(got) != mergedCap {
		t.Fatalf("retained %d envelopes, want %d", len(got), mergedCap)
	}
	for k, e := range got {
		if want := uint64(extra + 1 + k); e.Seq != want {
			t.Fatalf("position %d: seq %d, want %d (oldest first)", k, e.Seq, want)
		}
	}
	if view := c.Cluster(); view.Evicted != extra || view.Merged != mergedCap+extra {
		t.Fatalf("cluster view merged %d evicted %d, want %d and %d", view.Merged, view.Evicted, mergedCap+extra, extra)
	}
}

func TestReportLogPaging(t *testing.T) {
	l := NewReportLog()
	for i := 1; i <= 5; i++ {
		logReport(l, i)
	}
	page := l.Page(0)
	if page.First != 1 || page.Next != 6 || len(page.Reports) != 5 {
		t.Fatalf("full page: first=%d next=%d n=%d", page.First, page.Next, len(page.Reports))
	}
	for i, e := range page.Reports {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq at %d = %d", i, e.Seq)
		}
	}
	inc := l.Page(3)
	if len(inc.Reports) != 2 || inc.Reports[0].Seq != 4 {
		t.Fatalf("incremental page: %+v", inc.Reports)
	}
	if got := l.Page(99); len(got.Reports) != 0 {
		t.Fatalf("past-end page returned %d entries", len(got.Reports))
	}
}

func TestReportLogEviction(t *testing.T) {
	l := NewReportLog()
	for i := 1; i <= reportLogCap+6; i++ {
		logReport(l, i)
	}
	if l.Len() != reportLogCap {
		t.Fatalf("len = %d", l.Len())
	}
	page := l.Page(0)
	if page.First != 7 || page.Next != reportLogCap+7 {
		t.Fatalf("bounds after eviction: first=%d next=%d", page.First, page.Next)
	}
	// A cursor pointing into the evicted range only sees what's retained;
	// the gap is visible as First > since+1.
	stale := l.Page(2)
	if len(stale.Reports) != reportLogCap || stale.Reports[0].Seq != 7 {
		t.Fatalf("stale cursor page: %+v", stale.Reports)
	}
}

func TestReportLogHandler(t *testing.T) {
	l := NewReportLog()
	logReport(l, 1)
	logReport(l, 2)
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page LogPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Boot == 0 || len(page.Reports) != 1 || page.Reports[0].Seq != 2 {
		t.Fatalf("page over HTTP: %+v", page)
	}
	if resp, _ := http.Get(srv.URL + "?since=junk"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %d", resp.StatusCode)
	}
}

// --- Coordinator --------------------------------------------------------

// testMember is an httptest-backed analyzer stand-in: a ReportLog plus a
// flippable health switch.
type testMember struct {
	name string
	srv  *httptest.Server
	up   atomic.Bool

	mu  sync.Mutex
	log *ReportLog
}

func newTestMember(t *testing.T, name string) *testMember {
	t.Helper()
	m := &testMember{name: name, log: NewReportLog()}
	m.up.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !m.up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/reports", func(w http.ResponseWriter, r *http.Request) {
		if !m.up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		m.mu.Lock()
		h := m.log.Handler()
		m.mu.Unlock()
		h.ServeHTTP(w, r)
	})
	m.srv = httptest.NewServer(mux)
	t.Cleanup(m.srv.Close)
	return m
}

func (m *testMember) config() MemberConfig {
	return MemberConfig{Name: m.name, EventAddr: m.name + ":19000", BaseURL: m.srv.URL}
}

func (m *testMember) record(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	logReport(m.log, id)
}

// restart swaps in a fresh ReportLog, as a restarted analyzer would.
func (m *testMember) restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = NewReportLog()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fastCoordinator(t *testing.T, members ...*testMember) *Coordinator {
	t.Helper()
	cfgs := make([]MemberConfig, len(members))
	for i, m := range members {
		cfgs[i] = m.config()
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Members:       cfgs,
		ProbeInterval: 10 * time.Millisecond,
		PullInterval:  10 * time.Millisecond,
		Window:        20 * time.Millisecond,
		DownFails:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	m := MemberConfig{Name: "a", EventAddr: "a:1", BaseURL: "http://a"}
	if _, err := NewCoordinator(CoordinatorConfig{Members: []MemberConfig{m, m}}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Members: []MemberConfig{{Name: "a"}}}); err == nil {
		t.Fatal("member without addresses accepted")
	}
}

func TestCoordinatorFailoverReassignsAndBumpsEpoch(t *testing.T) {
	a := newTestMember(t, "alpha")
	b := newTestMember(t, "beta")
	c := fastCoordinator(t, a, b)

	waitFor(t, "both members alive", func() bool {
		view := c.Cluster()
		return len(view.Members) == 2 && view.Members[0].Alive && view.Members[1].Alive
	})
	epoch0 := c.Epoch()

	// Find an agent assigned to alpha so the failover is observable.
	var victim string
	for i := 0; i < 100; i++ {
		agent := fmt.Sprintf("agent-%d", i)
		asg, err := c.Assignment(agent)
		if err != nil {
			t.Fatal(err)
		}
		if asg.Member == "alpha" {
			victim = agent
			break
		}
	}
	if victim == "" {
		t.Fatal("no agent hashed to alpha")
	}

	a.up.Store(false)
	waitFor(t, "alpha declared dead", func() bool {
		for _, m := range c.Cluster().Members {
			if m.Name == "alpha" {
				return !m.Alive
			}
		}
		return false
	})
	if c.Epoch() <= epoch0 {
		t.Fatalf("epoch did not bump on death: %d -> %d", epoch0, c.Epoch())
	}
	asg, err := c.Assignment(victim)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Member != "beta" {
		t.Fatalf("victim still assigned to %q", asg.Member)
	}
	if view := c.Cluster(); view.Assignments[victim] != "beta" {
		t.Fatalf("cluster view assignment: %q", view.Assignments[victim])
	}

	// Recovery: epoch bumps again, the victim moves back (rendezvous
	// hashing restores the original owner).
	epochDead := c.Epoch()
	a.up.Store(true)
	waitFor(t, "alpha alive again", func() bool { return c.Epoch() > epochDead })
	if asg, _ := c.Assignment(victim); asg.Member != "alpha" {
		t.Fatalf("victim did not move back: %q", asg.Member)
	}
}

func TestCoordinatorAssignmentFailsWithNoAliveMembers(t *testing.T) {
	a := newTestMember(t, "alpha")
	c := fastCoordinator(t, a)
	waitFor(t, "alpha alive", func() bool { return c.Cluster().Members[0].Alive })
	a.up.Store(false)
	waitFor(t, "alpha dead", func() bool { return !c.Cluster().Members[0].Alive })
	if _, err := c.Assignment("agent-1"); err == nil {
		t.Fatal("assignment succeeded with no alive members")
	}
	srv := httptest.NewServer(c.AssignHandler())
	defer srv.Close()
	if resp, _ := http.Get(srv.URL + "?agent=agent-1"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("assign handler: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("assign handler without agent: %d", resp.StatusCode)
	}
}

// TestResolverAgainstAssignHandler: the client half agrees with the
// handler — the owner's event address on 200, an error (so the sender
// backs off and asks again) on a refusal or an assignment with no address.
func TestResolverAgainstAssignHandler(t *testing.T) {
	a := newTestMember(t, "alpha")
	c := fastCoordinator(t, a)
	waitFor(t, "alpha alive", func() bool { return c.Cluster().Members[0].Alive })
	mux := http.NewServeMux()
	mux.Handle("/assign", c.AssignHandler())
	mux.HandleFunc("/blank/assign", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Assignment{Agent: r.URL.Query().Get("agent"), Member: "alpha"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resolve := Resolver(srv.URL+"/", "dep 1&x") // trailing slash and a key that needs escaping
	if addr, err := resolve(); err != nil || addr != a.config().EventAddr {
		t.Fatalf("resolve = %q, %v; want %q", addr, err, a.config().EventAddr)
	}
	if asg, _ := c.Assignment("dep 1&x"); asg.Member != "alpha" {
		t.Fatalf("the key did not reach the coordinator intact: %+v", c.Cluster().Assignments)
	}
	if addr, err := Resolver(srv.URL+"/blank", "dep-1")(); err == nil {
		t.Fatalf("an assignment without an address resolved to %q", addr)
	}
	a.up.Store(false)
	waitFor(t, "alpha dead", func() bool { return !c.Cluster().Members[0].Alive })
	if addr, err := resolve(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("resolve with no alive member = %q, %v; want the 503", addr, err)
	}
}

func TestCoordinatorMergesMemberReports(t *testing.T) {
	a := newTestMember(t, "alpha")
	b := newTestMember(t, "beta")
	c := fastCoordinator(t, a, b)

	a.record(1)
	a.record(3)
	b.record(2)
	waitFor(t, "3 reports merged", func() bool { return len(c.Merged()) == 3 })

	envs := c.Merged()
	for _, e := range envs {
		if e.Member != "alpha" && e.Member != "beta" {
			t.Fatalf("unexpected member %q", e.Member)
		}
		var rep core.Report
		if err := json.Unmarshal(e.Report, &rep); err != nil {
			t.Fatalf("report body not verbatim JSON: %v", err)
		}
	}
	// Ordered by DetectedAt across members: trace ids 1, 2, 3.
	var ids []uint64
	for _, e := range envs {
		var rep core.Report
		json.Unmarshal(e.Report, &rep)
		ids = append(ids, rep.TraceID)
	}
	for i, want := range []uint64{1, 2, 3} {
		if ids[i] != want {
			t.Fatalf("merged order = %v", ids)
		}
	}

	// Pull cursors advance: nothing is ingested twice.
	waitFor(t, "cursors settle", func() bool {
		for _, m := range c.Cluster().Members {
			if m.Name == "alpha" && m.Since != 2 {
				return false
			}
			if m.Name == "beta" && m.Since != 1 {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond) // several more pull ticks
	if n := len(c.Merged()); n != 3 {
		t.Fatalf("re-pull duplicated reports: %d", n)
	}
}

func TestCoordinatorMemberRestartResetsCursor(t *testing.T) {
	a := newTestMember(t, "alpha")
	c := fastCoordinator(t, a)

	a.record(1)
	waitFor(t, "first report merged", func() bool { return len(c.Merged()) == 1 })
	epoch0 := c.Epoch()

	a.restart()
	a.record(7)
	waitFor(t, "post-restart report merged", func() bool { return len(c.Merged()) == 2 })
	if c.Epoch() <= epoch0 {
		t.Fatalf("member restart did not bump epoch: %d -> %d", epoch0, c.Epoch())
	}
	envs := c.Merged()
	last := envs[len(envs)-1]
	if last.Seq != 1 {
		t.Fatalf("post-restart seq = %d, want 1 (fresh log)", last.Seq)
	}
	if last.Epoch <= envs[0].Epoch {
		t.Fatalf("post-restart epoch %d not after %d", last.Epoch, envs[0].Epoch)
	}
}

func TestCoordinatorHealthzAggregates(t *testing.T) {
	a := newTestMember(t, "alpha")
	b := newTestMember(t, "beta")
	c := fastCoordinator(t, a, b)
	waitFor(t, "both alive", func() bool {
		v := c.Cluster()
		return v.Members[0].Alive && v.Members[1].Alive
	})
	srv := httptest.NewServer(c.HealthzHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy cluster: %d", resp.StatusCode)
	}
	b.up.Store(false)
	waitFor(t, "beta dead", func() bool { return !c.Cluster().Members[1].Alive })
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded cluster: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"beta"`)) || !bytes.Contains(body, []byte(`"alive":false`)) {
		t.Fatalf("healthz body does not name the dead member: %s", body)
	}
}
