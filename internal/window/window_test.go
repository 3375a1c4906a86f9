package window

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"gretel/internal/trace"
)

func ev(seq uint64) trace.Event { return trace.Event{Seq: seq} }

func TestAlpha(t *testing.T) {
	cases := []struct {
		name  string
		fpMax int
		prate float64
		t     float64
		want  int
	}{
		// The paper's deployment: FPmax=384, Prate=150, t=1 => alpha=768.
		{"paper", 384, 150, 1, 768},
		// High message rate dominates.
		{"rate-dominates", 100, 500, 2, 2000},
		// Fractional rate rounds up, never down: 150.7 msgs/s needs 151
		// slots per half, not 150.
		{"fractional-rate", 100, 150.7, 1, 302},
		// Fractional product from a sub-second horizon.
		{"fractional-horizon", 100, 301, 0.5, 302},
		// Sub-FPmax rate: the fingerprint bound wins and stays exact.
		{"sub-fpmax-rate", 384, 150.7, 1, 768},
		{"sub-fpmax-fractional-tie", 10, 9.4, 1, 20},
		// Rate a hair over FPmax must still round up past it.
		{"just-over-fpmax", 10, 10.2, 1, 22},
	}
	for _, c := range cases {
		if got := Alpha(c.fpMax, c.prate, c.t); got != c.want {
			t.Errorf("%s: Alpha(%d, %g, %g) = %d, want %d", c.name, c.fpMax, c.prate, c.t, got, c.want)
		}
	}
}

func TestPushEvictsOldest(t *testing.T) {
	w := New(4)
	for i := uint64(1); i <= 6; i++ {
		w.Push(ev(i))
	}
	if w.Len() != 4 || w.Pushed() != 6 {
		t.Fatalf("len=%d pushed=%d", w.Len(), w.Pushed())
	}
	got := w.contents()
	for i, want := range []uint64{3, 4, 5, 6} {
		if got[i].Seq != want {
			t.Fatalf("contents[%d] = %d, want %d", i, got[i].Seq, want)
		}
	}
}

// PushSeq numbers the window's copy and leaves the caller's event as
// it was, before and after the ring wraps.
func TestPushSeqNumbersTheCopy(t *testing.T) {
	w := New(2)
	for i := uint64(1); i <= 3; i++ {
		in := trace.Event{ConnID: i}
		w.PushSeq(&in, 10*i, uint32(i))
		if in.Seq != 0 || in.ConnID != i {
			t.Fatalf("push %d wrote the caller's event: %+v", i, in)
		}
	}
	got := w.contents()
	for i, want := range []uint64{20, 30} {
		if got[i].Seq != want || got[i].ConnID != want/10 {
			t.Fatalf("contents[%d] = seq %d conn %d, want seq %d conn %d", i, got[i].Seq, got[i].ConnID, want, want/10)
		}
	}
}

func TestArmSnapshotCentersFault(t *testing.T) {
	w := New(8)
	for i := uint64(1); i <= 10; i++ {
		w.Push(ev(i))
	}
	// Message 10 is the fault.
	var snap *Snapshot
	w.Arm(func(s *Snapshot) { snap = s })
	if w.ArmedCount() != 1 {
		t.Fatal("not armed")
	}
	// Needs alpha/2 = 4 more messages.
	for i := uint64(11); i <= 13; i++ {
		w.Push(ev(i))
		if snap != nil {
			t.Fatalf("snapshot fired early at %d", i)
		}
	}
	w.Push(ev(14))
	if snap == nil {
		t.Fatal("snapshot never fired")
	}
	if len(snap.Events) != 8 {
		t.Fatalf("snapshot size = %d, want 8", len(snap.Events))
	}
	if got := snap.Events[snap.FaultIndex].Seq; got != 10 {
		t.Fatalf("fault event seq = %d, want 10", got)
	}
	// Past half: 7,8,9; future half: 11..14.
	if snap.Events[0].Seq != 7 || snap.Events[len(snap.Events)-1].Seq != 14 {
		t.Fatalf("snapshot range [%d, %d]", snap.Events[0].Seq, snap.Events[len(snap.Events)-1].Seq)
	}
	if w.ArmedCount() != 0 {
		t.Fatal("armed entry not cleared")
	}
}

func TestMultipleArmedSnapshots(t *testing.T) {
	w := New(8)
	for i := uint64(1); i <= 8; i++ {
		w.Push(ev(i))
	}
	var got []uint64
	w.Arm(func(s *Snapshot) { got = append(got, s.Events[s.FaultIndex].Seq) })
	w.Push(ev(9))
	w.Push(ev(10))
	w.Arm(func(s *Snapshot) { got = append(got, s.Events[s.FaultIndex].Seq) })
	for i := uint64(11); i <= 20; i++ {
		w.Push(ev(i))
	}
	if len(got) != 2 || got[0] != 8 || got[1] != 10 {
		t.Fatalf("fault seqs = %v, want [8 10]", got)
	}
}

func TestSnapshotEarlyFault(t *testing.T) {
	// Fault before the window ever filled: index clamps to 0.
	w := New(8)
	w.Push(ev(1))
	var snap *Snapshot
	w.Arm(func(s *Snapshot) { snap = s })
	for i := uint64(2); i <= 5; i++ {
		w.Push(ev(i))
	}
	if snap == nil {
		t.Fatal("snapshot never fired")
	}
	if snap.FaultIndex != 0 || snap.Events[0].Seq != 1 {
		t.Fatalf("fault index = %d, first = %d", snap.FaultIndex, snap.Events[0].Seq)
	}
}

func TestContextGrowth(t *testing.T) {
	evs := make([]trace.Event, 100)
	for i := range evs {
		evs[i] = ev(uint64(i))
	}
	s := &Snapshot{Events: evs, FaultIndex: 50}
	c := s.Context(10)
	if len(c) != 11 { // 5 each side + fault
		t.Fatalf("context size = %d", len(c))
	}
	if c[0].Seq != 45 || c[len(c)-1].Seq != 55 {
		t.Fatalf("context range [%d,%d]", c[0].Seq, c[len(c)-1].Seq)
	}
	if s.Covered(10) {
		t.Fatal("covered too early")
	}
	full := s.Context(1000)
	if len(full) != 100 {
		t.Fatalf("full context = %d", len(full))
	}
	if !s.Covered(1000) {
		t.Fatal("not covered at 1000")
	}
	if s.Context(0) != nil {
		t.Fatal("Context(0) should be nil")
	}
}

func TestContextClampsAtEdges(t *testing.T) {
	evs := make([]trace.Event, 10)
	for i := range evs {
		evs[i] = ev(uint64(i))
	}
	s := &Snapshot{Events: evs, FaultIndex: 1}
	c := s.Context(8)
	if c[0].Seq != 0 {
		t.Fatalf("context start = %d", c[0].Seq)
	}
	s.FaultIndex = 9
	c = s.Context(8)
	if c[len(c)-1].Seq != 9 {
		t.Fatalf("context end = %d", c[len(c)-1].Seq)
	}
}

func TestFlushFiresPartialSnapshots(t *testing.T) {
	w := New(8)
	for i := uint64(1); i <= 8; i++ {
		w.Push(ev(i))
	}
	var snap *Snapshot
	w.Arm(func(s *Snapshot) { snap = s })
	w.Push(ev(9)) // only 1 of 4 future messages
	w.Flush()
	if snap == nil {
		t.Fatal("flush did not fire")
	}
	if got := snap.Events[snap.FaultIndex].Seq; got != 8 {
		t.Fatalf("flushed fault seq = %d, want 8", got)
	}
	if w.ArmedCount() != 0 {
		t.Fatal("armed not cleared by flush")
	}
}

func TestMinimumAlpha(t *testing.T) {
	w := New(0)
	if w.Alpha() < 2 {
		t.Fatal("alpha floor missing")
	}
}

// Property: after any push sequence, window contents are the most recent
// min(n, alpha) events in order.
func TestQuickWindowContents(t *testing.T) {
	f := func(n uint16, alphaRaw uint8) bool {
		alpha := int(alphaRaw%64) + 2
		w := New(alpha)
		total := int(n % 500)
		for i := 1; i <= total; i++ {
			w.Push(ev(uint64(i)))
		}
		got := w.contents()
		want := total
		if want > alpha {
			want = alpha
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Seq != uint64(total-want+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamePushSharesOneSnapshot(t *testing.T) {
	w := New(8)
	for i := uint64(1); i <= 8; i++ {
		w.Push(ev(i))
	}
	// Two faults armed on the same message fire on the same push and
	// must share one Snapshot (one ring copy).
	var got []*Snapshot
	w.Arm(func(s *Snapshot) { got = append(got, s) })
	w.Arm(func(s *Snapshot) { got = append(got, s) })
	for i := uint64(9); i <= 12; i++ {
		w.Push(ev(i))
	}
	if len(got) != 2 {
		t.Fatalf("snapshots fired = %d, want 2", len(got))
	}
	if got[0] != got[1] {
		t.Fatal("same-push snapshots not shared")
	}
	if got[0].buf == nil || got[0].buf.refs.Load() != 2 {
		t.Fatalf("shared buffer refcount = %v, want 2", got[0].buf.refs.Load())
	}
}

func TestFlushSharesOneCopy(t *testing.T) {
	w := New(8)
	for i := uint64(1); i <= 8; i++ {
		w.Push(ev(i))
	}
	var got []*Snapshot
	w.Arm(func(s *Snapshot) { got = append(got, s) })
	w.Push(ev(9))
	w.Push(ev(10))
	w.Arm(func(s *Snapshot) { got = append(got, s) })
	w.Flush()
	if len(got) != 2 {
		t.Fatalf("snapshots fired = %d, want 2", len(got))
	}
	// Distinct snapshots (fault indexes differ) over one shared buffer.
	if got[0] == got[1] || got[0].buf != got[1].buf {
		t.Fatal("flush snapshots should share one buffer via distinct Snapshots")
	}
	if &got[0].Events[0] != &got[1].Events[0] {
		t.Fatal("flush snapshots do not share backing storage")
	}
	if got[0].FaultIndex == got[1].FaultIndex {
		t.Fatal("fault indexes should differ")
	}
	if got[0].Events[got[0].FaultIndex].Seq != 8 || got[1].Events[got[1].FaultIndex].Seq != 10 {
		t.Fatalf("fault seqs = %d, %d; want 8, 10",
			got[0].Events[got[0].FaultIndex].Seq, got[1].Events[got[1].FaultIndex].Seq)
	}
}

func TestReleaseRecyclesBuffer(t *testing.T) {
	w := New(4)
	fire := func() *Snapshot {
		var snap *Snapshot
		for i := uint64(1); i <= 4; i++ {
			w.Push(ev(i))
		}
		w.Arm(func(s *Snapshot) { snap = s })
		w.Push(ev(5))
		w.Push(ev(6))
		if snap == nil {
			t.Fatal("snapshot never fired")
		}
		return snap
	}
	first := fire()
	buf := first.buf
	first.Release()
	if first.Events != nil || first.buf != nil {
		t.Fatal("Release did not clear the snapshot")
	}
	first.Release() // second release of the same consumer handle: no-op
	// Under the race detector sync.Pool drops a fraction of puts on
	// purpose, so recycling is probabilistic there: retry until the pool
	// hands the released buffer back.
	recycled := false
	for i := 0; i < 20 && !recycled; i++ {
		second := fire()
		recycled = second.buf == buf
		// The recycled snapshot carries the fresh window, not stale events.
		if second.Events[second.FaultIndex].Seq != 4 {
			t.Fatalf("recycled snapshot fault seq = %d, want 4", second.Events[second.FaultIndex].Seq)
		}
		buf = second.buf
		second.Release()
	}
	if !recycled {
		t.Fatal("released buffer was not recycled")
	}

	// Literal snapshots (no pooled buffer) tolerate Release.
	lit := &Snapshot{Events: []trace.Event{ev(1)}, FaultIndex: 0}
	lit.Release()
	var nilSnap *Snapshot
	nilSnap.Release()
}

// Snapshots hand back the words their events were pushed with, aligned
// with Events across a wrapped ring, and carry none while any of their
// events came from the word-less Push.
func TestSnapshotWords(t *testing.T) {
	w := New(4)
	var snaps []*Snapshot
	push := func(i int, bare bool) {
		ev := trace.Event{Seq: uint64(i)}
		if bare {
			w.Push(ev)
		} else {
			w.PushSeq(&ev, ev.Seq, uint32(100+i))
		}
	}
	push(1, true)
	for i := 2; i <= 9; i++ {
		push(i, false)
		w.Arm(func(s *Snapshot) { snaps = append(snaps, s) })
	}
	push(10, true) // fires the snapshot armed at 8
	w.Flush()
	worded := 0
	for _, s := range snaps {
		if s.Words != nil {
			worded++
		}
		bare := false
		for _, ev := range s.Events {
			bare = bare || ev.Seq == 1 || ev.Seq == 10
		}
		if bare != (s.Words == nil) {
			t.Fatalf("snapshot from seq %d: words %v", s.Events[0].Seq, s.Words)
		}
		for i, word := range s.Words {
			if want := uint32(100 + s.Events[i].Seq); word != want {
				t.Fatalf("snapshot from seq %d: word %d = %d, want %d", s.Events[0].Seq, i, word, want)
			}
		}
		s.Release()
	}
	if len(snaps) != 8 || worded != 5 {
		t.Fatalf("%d snapshots, %d with words: the bare pushes no longer bracket word-carrying ones", len(snaps), worded)
	}
}

// TestArmBack holds ArmBack(k) to Arm at the fault's push: for every k in
// [0, α/2), with other freeze points armed at every push around the
// fault (and, at the push ArmBack is called on, both before and after
// it), the same points fire on the same pushes, in the same order, with
// the same Events, Words and FaultIndex — both as the window fills and
// at a Flush that catches them pending. k outside [0, α/2) is rejected.
func TestArmBack(t *testing.T) {
	const alpha, fault = 8, 6
	half := alpha / 2
	type fire struct {
		tag   string
		at    uint64 // Pushed() when it fired
		seqs  []uint64
		words []uint32
		idx   int
	}
	run := func(k, tail int, late bool) []fire {
		w := New(alpha)
		var fires []fire
		arm := func(tag string) func(*Snapshot) {
			return func(s *Snapshot) {
				f := fire{tag: tag, at: w.Pushed(), words: append([]uint32(nil), s.Words...), idx: s.FaultIndex}
				for _, e := range s.Events {
					f.seqs = append(f.seqs, e.Seq)
				}
				fires = append(fires, f)
				s.Release()
			}
		}
		push := func(i int) {
			e := ev(uint64(i))
			w.PushSeq(&e, uint64(i), uint32(i)*3)
		}
		for i := 1; i <= fault+k; i++ {
			push(i)
			if i >= fault-2 {
				w.Arm(arm(fmt.Sprint("other@", i)))
			}
			if i == fault && !late {
				w.Arm(arm("fault"))
			}
		}
		if late {
			w.ArmBack(k, arm("fault"))
		}
		w.Arm(arm("after"))
		for i := fault + k + 1; i <= fault+k+tail; i++ {
			push(i)
		}
		w.Flush()
		return fires
	}
	for k := 0; k < half; k++ {
		for _, tail := range []int{0, 1, half - k - 1, half - k, alpha} {
			want, got := run(k, tail, false), run(k, tail, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d tail=%d: ArmBack fired\n%+v\nArm at the fault fired\n%+v", k, tail, got, want)
			}
		}
	}
	for _, k := range []int{-1, half, half + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ArmBack(%d) with α=%d was accepted", k, alpha)
				}
			}()
			New(alpha).ArmBack(k, func(*Snapshot) {})
		}()
	}
}
