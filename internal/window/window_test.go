package window

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"gretel/internal/trace"
)

func ev(seq uint64) trace.Event { return trace.Event{Seq: seq} }

// contents returns the window oldest-first as a fresh slice.
func (w *Dual) contents() []trace.Event {
	s := w.freeze(1, 0)
	defer s.Release()
	return events(s)
}

// events copies every message of s.
func events(s *Snapshot) []trace.Event { return slice(s, 0, s.Len()) }

// slice copies messages [lo, hi) of s.
func slice(s *Snapshot, lo, hi int) []trace.Event {
	var out []trace.Event
	for i := lo; i < hi; i++ {
		out = append(out, *s.At(i))
	}
	return out
}

// words flattens the words of s, nil when it has none.
func words(s *Snapshot) []uint32 {
	var out []uint32
	for _, seg := range s.Words(nil) {
		out = append(out, seg...)
	}
	return out
}

// literal is a snapshot of evs, as a window that held exactly them would
// freeze it.
func literal(evs []trace.Event, faultIdx int) *Snapshot {
	w := New(len(evs))
	for _, e := range evs {
		w.Push(e)
	}
	return w.freeze(1, faultIdx)
}

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
	if snap.Len() != 8 {
		t.Fatalf("snapshot size = %d, want 8", snap.Len())
	}
	if got := snap.At(snap.FaultIndex).Seq; got != 10 {
		t.Fatalf("fault event seq = %d, want 10", got)
	}
	// Past half: 7,8,9; future half: 11..14.
	if snap.At(0).Seq != 7 || snap.At(snap.Len()-1).Seq != 14 {
		t.Fatalf("snapshot range [%d, %d]", snap.At(0).Seq, snap.At(snap.Len()-1).Seq)
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
	w.Arm(func(s *Snapshot) { got = append(got, s.At(s.FaultIndex).Seq) })
	w.Push(ev(9))
	w.Push(ev(10))
	w.Arm(func(s *Snapshot) { got = append(got, s.At(s.FaultIndex).Seq) })
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
	if snap.FaultIndex != 0 || snap.At(0).Seq != 1 {
		t.Fatalf("fault index = %d, first = %d", snap.FaultIndex, snap.At(0).Seq)
	}
}

func TestContextGrowth(t *testing.T) {
	evs := make([]trace.Event, 100)
	for i := range evs {
		evs[i] = ev(uint64(i))
	}
	s := literal(evs, 50)
	c := context(s, 10)
	if len(c) != 11 { // 5 each side + fault
		t.Fatalf("context size = %d", len(c))
	}
	if c[0].Seq != 45 || c[len(c)-1].Seq != 55 {
		t.Fatalf("context range [%d,%d]", c[0].Seq, c[len(c)-1].Seq)
	}
	if s.Covered(10) {
		t.Fatal("covered too early")
	}
	full := context(s, 1000)
	if len(full) != 100 {
		t.Fatalf("full context = %d", len(full))
	}
	if !s.Covered(1000) {
		t.Fatal("not covered at 1000")
	}
	if context(s, 0) != nil {
		t.Fatal("a β of 0 should hold nothing")
	}
}

// context copies the messages of the context buffer of the given beta.
func context(s *Snapshot, beta int) []trace.Event {
	lo, hi := s.ContextBounds(beta)
	return slice(s, lo, hi)
}

func TestContextClampsAtEdges(t *testing.T) {
	evs := make([]trace.Event, 10)
	for i := range evs {
		evs[i] = ev(uint64(i))
	}
	s := literal(evs, 1)
	c := context(s, 8)
	if c[0].Seq != 0 {
		t.Fatalf("context start = %d", c[0].Seq)
	}
	s.FaultIndex = 9
	c = context(s, 8)
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
	if got := snap.At(snap.FaultIndex).Seq; got != 8 {
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
	// must share one Snapshot, held by both.
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
	if got[0].refs != 2 {
		t.Fatalf("shared snapshot held by %d consumers, want 2", got[0].refs)
	}
	// The first consumer's release leaves the other's view intact.
	got[0].Release()
	if got[1].Len() != 8 || got[1].At(got[1].FaultIndex).Seq != 8 {
		t.Fatalf("after one release: %d events, fault seq %d", got[1].Len(), got[1].At(got[1].FaultIndex).Seq)
	}
	c := got[1].chunks[0]
	got[1].Release()
	got[1].Release() // past the last consumer: no-op
	if c.pins != 1 || len(got[1].chunks) != 0 {
		t.Fatalf("after both releases: chunk pins %d (want the window's 1), %d chunks pinned", c.pins, len(got[1].chunks))
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
	// Distinct snapshots (fault indexes differ) over the same chunks.
	if got[0] == got[1] || got[0].chunks[0] != got[1].chunks[0] {
		t.Fatal("flush snapshots should pin the same chunks via distinct Snapshots")
	}
	if got[0].At(0) != got[1].At(0) {
		t.Fatal("flush snapshots do not share backing storage")
	}
	if got[0].FaultIndex == got[1].FaultIndex {
		t.Fatal("fault indexes should differ")
	}
	if got[0].At(got[0].FaultIndex).Seq != 8 || got[1].At(got[1].FaultIndex).Seq != 10 {
		t.Fatalf("fault seqs = %d, %d; want 8, 10",
			got[0].At(got[0].FaultIndex).Seq, got[1].At(got[1].FaultIndex).Seq)
	}
	if pins := got[0].chunks[0].pins; pins != 3 {
		t.Fatalf("chunk pins = %d, want 3 (the window and two snapshots)", pins)
	}
}

func TestReleaseRecyclesBuffer(t *testing.T) {
	w := New(4)
	n := uint64(0)
	push := func() {
		n++
		w.Push(ev(n))
	}
	fire := func() (*Snapshot, uint64) {
		var snap *Snapshot
		fault := n
		w.Arm(func(s *Snapshot) { snap = s })
		for snap == nil {
			push()
		}
		return snap, fault
	}
	for range 4 {
		push()
	}
	first, _ := fire()
	c := first.chunks[0]
	// Push the window past the chunk: only the snapshot pins it now.
	for w.chunks[0] == c {
		push()
	}
	if c.pins != 1 {
		t.Fatalf("chunk left the window with %d pins, want the snapshot's 1", c.pins)
	}
	first.Release()
	if len(first.chunks) != 0 || c.pins != 0 {
		t.Fatalf("Release left %d chunks pinned, chunk pins %d", len(first.chunks), c.pins)
	}
	first.Release() // second release of the same consumer handle: no-op
	if c.pins != 0 {
		t.Fatalf("second release moved the chunk's pins to %d", c.pins)
	}
	// The released chunk is the next one the window fills.
	for w.chunks[len(w.chunks)-1] != c {
		if push(); n > 4*chunkLen {
			t.Fatal("released chunk was not reused")
		}
	}
	second, fault := fire()
	if second == first {
		t.Fatal("a released snapshot was handed out again")
	}
	// The reused chunk carries the fresh window, not stale events.
	if got := second.At(second.FaultIndex).Seq; got != fault {
		t.Fatalf("snapshot over the reused chunk: fault seq = %d, want %d", got, fault)
	}
	second.Release()
	for _, c := range w.chunks {
		if c.pins != 1 {
			t.Fatalf("window chunk pinned %d times after every release", c.pins)
		}
	}

	// Snapshots not frozen by a window tolerate Release.
	var lit Snapshot
	lit.Release()
	var nilSnap *Snapshot
	nilSnap.Release()
}

// TestHeldSnapshotsOutliveTheWindow holds snapshots while the window
// advances 2α and more past them, then releases them from other
// goroutines while the window keeps pushing, as detect workers do: each
// must still read its own events and words, the chunks it pinned must
// not be refilled while pinned (run it under -race), released chunks
// must be reused, and the chunks kept once every snapshot is released
// must be bounded by what the window spans.
func TestHeldSnapshotsOutliveTheWindow(t *testing.T) {
	const alpha, rounds = 200, 10
	w := New(alpha)
	check := func(s *Snapshot, fault uint64) {
		if s.Len() != min(alpha, int(fault)+alpha/2) || s.At(s.FaultIndex).Seq != fault {
			t.Errorf("snapshot of fault %d: %d events, fault seq %d", fault, s.Len(), s.At(s.FaultIndex).Seq)
			return
		}
		ws := words(s)
		for i := 0; i < s.Len(); i++ {
			if seq := s.At(i).Seq; seq != s.At(0).Seq+uint64(i) || ws[i] != uint32(seq)*7 {
				t.Errorf("snapshot of fault %d: event %d seq %d word %d", fault, i, seq, ws[i])
				return
			}
		}
	}
	type held struct {
		s     *Snapshot
		fault uint64
	}
	var done sync.WaitGroup
	n := uint64(0)
	made := map[*chunk]bool{} // every chunk the window has filled
	for round := 0; round < rounds; round++ {
		var batch []held
		for k := 0; k < 3*alpha; k++ {
			n++
			e := ev(n)
			w.PushSeq(&e, n, uint32(n)*7)
			made[w.chunks[len(w.chunks)-1]] = true
			// Armed so that each fires within the round.
			if n%(alpha/4) == 0 && k < 3*alpha-alpha/2 {
				fault := n
				w.Arm(func(s *Snapshot) { batch = append(batch, held{s, fault}) })
			}
		}
		if len(batch) < 10 {
			t.Fatalf("round %d froze %d snapshots", round, len(batch))
		}
		// The oldest of them was frozen more than 2α pushes ago.
		for _, h := range batch {
			check(h.s, h.fault)
		}
		done.Wait()
		done.Add(1)
		go func() {
			defer done.Done()
			for _, h := range batch {
				check(h.s, h.fault)
				h.s.Release()
			}
		}()
	}
	done.Wait()
	if len(made) >= int(n)/chunkLen {
		t.Fatalf("%d chunks filled over %d pushes: none reused", len(made), n)
	}
	// Every snapshot released: only the window pins chunks, and the free
	// list keeps no more than the window can span; the chunks past that
	// are spilled where the garbage collector may take them.
	for _, c := range w.chunks {
		if c.pins != 1 {
			t.Fatalf("window chunk pinned %d times after every release", c.pins)
		}
	}
	if free := len(w.rec.chunks); free > w.rec.keep {
		t.Fatalf("%d free chunks kept after the burst, want at most %d", free, w.rec.keep)
	}
	// With no snapshot held the window fills only chunks it already has.
	filled := len(made)
	for range 10 * alpha {
		n++
		e := ev(n)
		w.PushSeq(&e, n, 0)
		made[w.chunks[len(w.chunks)-1]] = true
	}
	if len(made) != filled {
		t.Fatalf("the window took %d fresh chunks with nothing held", len(made)-filled)
	}
}

// Snapshots hand back the words their events were pushed with, aligned
// with the events across a wrapped ring, and carry none while any of their
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
		ws := words(s)
		if ws != nil {
			worded++
		}
		bare := false
		for _, ev := range events(s) {
			bare = bare || ev.Seq == 1 || ev.Seq == 10
		}
		if bare != (ws == nil) {
			t.Fatalf("snapshot from seq %d: words %v", s.At(0).Seq, ws)
		}
		for i, word := range ws {
			if want := uint32(100 + s.At(i).Seq); word != want {
				t.Fatalf("snapshot from seq %d: word %d = %d, want %d", s.At(0).Seq, i, word, want)
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
// the same events, words and FaultIndex — both as the window fills and
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
				f := fire{tag: tag, at: w.Pushed(), words: words(s), idx: s.FaultIndex}
				for _, e := range events(s) {
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
