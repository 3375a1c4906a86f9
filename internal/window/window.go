// Package window implements GRETEL's sliding-window machinery (§5.3.1 and
// §6): a dual-buffer ring of the most recent α messages, freeze-on-fault
// snapshots capturing both the past and the future of a faulty message,
// and the growing context buffer the operation detector walks outward
// from the fault.
//
// α = 2·max(FPmax, Prate·t): twice the larger of the biggest fingerprint
// and the message volume of a t-second interval. On a fault, the window
// slides ahead by α/2 messages and waits for the receiver to deliver the
// remaining α/2, yielding a snapshot centered on the offending message.
package window

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gretel/internal/trace"
)

// Alpha computes the sliding-window size from FPmax, the incoming message
// rate (packets/second) and the time horizon t (seconds). The paper's
// deployment: FPmax=384, Prate≈150, t=1 ⇒ α=768. Fractional Prate·t is
// rounded up — the window must hold at least a t-second interval, so
// truncating (e.g. prate=150.7, t=1 ⇒ α=300 instead of 302) would
// silently undersize it.
func Alpha(fpMax int, prate, t float64) int {
	m := float64(fpMax)
	if v := prate * t; v > m {
		m = v
	}
	return 2 * int(math.Ceil(m))
}

// snapBuf is one ring copy shared by every snapshot that fired on the
// same push, refcounted so the last Release returns it to the window's
// buffer pool.
type snapBuf struct {
	evs   []trace.Event // cap == alpha
	words []uint32      // cap == alpha
	refs  atomic.Int32
}

// Snapshot is a frozen fault-centered message window.
type Snapshot struct {
	// Events holds the α messages around the fault, oldest first.
	Events []trace.Event
	// Words holds the word each event was pushed with (PushSeq), beside
	// Events; nil when any of them was pushed without one (Push).
	Words []uint32
	// FaultIndex locates the offending message within Events.
	FaultIndex int

	// buf/pool back pooled snapshots (nil for literal snapshots).
	buf  *snapBuf
	pool *sync.Pool
}

// Release hands the snapshot's shared ring copy back to the window's
// buffer pool once every consumer has released it. Call it when the
// detector is done with the snapshot; the Events slice must not be used
// afterwards. Safe (a no-op) on snapshots not backed by a pooled buffer.
// Each consumer must release at most once; concurrent releases from
// different detect workers are safe.
func (s *Snapshot) Release() {
	if s == nil || s.buf == nil {
		return
	}
	buf, pool := s.buf, s.pool
	s.buf, s.pool, s.Events, s.Words = nil, nil, nil, nil
	if buf.refs.Add(-1) == 0 && pool != nil {
		pool.Put(buf)
	}
}

// ContextBounds returns the [lo, hi) range of Events within beta
// messages centered on the fault (beta/2 on each side), clamped to the
// snapshot bounds.
func (s *Snapshot) ContextBounds(beta int) (lo, hi int) {
	if beta <= 0 {
		return 0, 0
	}
	half := beta / 2
	lo = s.FaultIndex - half
	if lo < 0 {
		lo = 0
	}
	hi = s.FaultIndex + half + 1
	if hi > len(s.Events) {
		hi = len(s.Events)
	}
	return lo, hi
}

// Context returns the events within beta messages centered on the fault
// (beta/2 on each side), clamped to the snapshot bounds — the context
// buffer β that sits atop the sliding window.
func (s *Snapshot) Context(beta int) []trace.Event {
	if beta <= 0 {
		return nil
	}
	lo, hi := s.ContextBounds(beta)
	return s.Events[lo:hi]
}

// Covered reports whether a context of the given beta already spans the
// whole snapshot, i.e. growing further cannot add messages.
func (s *Snapshot) Covered(beta int) bool {
	half := beta / 2
	return s.FaultIndex-half <= 0 && s.FaultIndex+half+1 >= len(s.Events)
}

type pending struct {
	remaining int
	onReady   func(*Snapshot)
}

// Dual is the dual-buffer receive window: a ring of the last α messages
// plus armed freeze points waiting for their future half to fill. Push,
// Arm, and Flush are not safe for concurrent use; the event receiver
// drives them from one goroutine (§5.2: TCP delivery preserves order).
// Snapshot.Release alone may be called from other goroutines — detect
// workers return ring copies to the pool when they finish.
type Dual struct {
	alpha int
	ring  []trace.Event
	words []uint32 // the word each ring slot was pushed with
	// start indexes the oldest element; size is the fill level.
	start, size int
	pushed      uint64
	// bare is the Pushed count just after the last push that carried
	// no word: a snapshot holding that push has no Words.
	bare  uint64
	armed []*pending
	// pool recycles snapshot ring copies; Release may return buffers
	// from concurrent detect workers, hence sync.Pool rather than a
	// plain free list.
	pool sync.Pool
}

// New returns a window of size alpha (minimum 2).
func New(alpha int) *Dual {
	if alpha < 2 {
		alpha = 2
	}
	w := &Dual{alpha: alpha, ring: make([]trace.Event, alpha), words: make([]uint32, alpha)}
	w.pool.New = func() any { return &snapBuf{evs: make([]trace.Event, alpha), words: make([]uint32, alpha)} }
	return w
}

// Alpha returns the configured window size.
func (w *Dual) Alpha() int { return w.alpha }

// Len reports the current fill level (at most α).
func (w *Dual) Len() int { return w.size }

// Pushed reports the total number of messages ever pushed.
func (w *Dual) Pushed() uint64 { return w.pushed }

// Push appends a message, evicting the oldest once full, and fires any
// armed snapshot whose future half has filled. It carries no word, so
// snapshots holding the message have nil Words.
func (w *Dual) Push(ev trace.Event) {
	w.bare = w.pushed + 1 // before PushSeq fires a snapshot holding it
	w.PushSeq(&ev, ev.Seq, 0)
}

// PushSeq is Push of *ev numbered seq, carrying the caller's word: the
// window's copy, the only one it makes, carries seq in place of ev.Seq,
// and *ev is not written. Snapshots hand the word back in Words, at the
// event's index; the window never reads it.
func (w *Dual) PushSeq(ev *trace.Event, seq uint64, word uint32) {
	var i int
	if w.size == w.alpha {
		i = w.start
		if w.start++; w.start == w.alpha {
			w.start = 0
		}
	} else {
		// start stays 0 until the ring first fills.
		i = w.size
		w.size++
	}
	slot := &w.ring[i]
	*slot = *ev
	slot.Seq = seq
	w.words[i] = word
	w.pushed++

	if len(w.armed) == 0 {
		return
	}
	kept := w.armed[:0]
	var ready []*pending
	for _, p := range w.armed {
		p.remaining--
		if p.remaining > 0 {
			kept = append(kept, p)
			continue
		}
		ready = append(ready, p)
	}
	w.armed = kept
	if len(ready) == 0 {
		return
	}
	// Every pending firing on the same push freezes the identical
	// window, so they all share one ring copy — and one Snapshot, with
	// the reference count set to the number of consumers.
	idx := w.size - 1 - w.alpha/2
	if idx < 0 {
		idx = 0
	}
	snap := w.sharedSnapshot(len(ready), idx)
	for _, p := range ready {
		p.onReady(snap)
	}
}

// contents returns the window oldest-first as a fresh slice.
func (w *Dual) contents() []trace.Event {
	out := make([]trace.Event, w.size)
	for i := 0; i < w.size; i++ {
		out[i] = w.ring[(w.start+i)%w.alpha]
	}
	return out
}

// sharedCopy copies the window into a pooled buffer carrying the given
// reference count.
func (w *Dual) sharedCopy(refs int) *snapBuf {
	buf := w.pool.Get().(*snapBuf)
	buf.refs.Store(int32(refs))
	// Oldest first: the ring from start, then its head.
	n := copy(buf.evs[:w.size], w.ring[w.start:w.size])
	copy(buf.evs[n:w.size], w.ring[:w.start])
	n = copy(buf.words[:w.size], w.words[w.start:w.size])
	copy(buf.words[n:w.size], w.words[:w.start])
	return buf
}

// snapshot is a Snapshot over buf's copy of the current window.
func (w *Dual) snapshot(buf *snapBuf, faultIdx int) *Snapshot {
	s := &Snapshot{Events: buf.evs[:w.size], FaultIndex: faultIdx, buf: buf, pool: &w.pool}
	if w.bare <= w.pushed-uint64(w.size) {
		s.Words = buf.words[:w.size]
	}
	return s
}

// sharedSnapshot freezes the current window into a pooled snapshot held
// by refs consumers.
func (w *Dual) sharedSnapshot(refs, faultIdx int) *Snapshot {
	return w.snapshot(w.sharedCopy(refs), faultIdx)
}

// Arm registers a freeze point at the most recently pushed message (the
// fault). After α/2 further messages arrive, onReady receives a snapshot
// whose fault index points at the offending message, giving the detector
// α/2 of past and α/2 of future (§5.3.1). Multiple faults may be armed
// simultaneously; each gets its own snapshot.
func (w *Dual) Arm(onReady func(*Snapshot)) { w.ArmBack(0, onReady) }

// ArmBack is Arm for the message pushed k pushes ago (Arm is ArmBack(0)),
// for a caller that learns only later that the message is a fault: the
// snapshot fires on the push Arm would have fired it on, over the same
// ring contents, and in the same order among the other armed freeze
// points, at a push and at Flush. k must lie in [0, α/2), where that push
// is still ahead; ArmBack panics otherwise.
func (w *Dual) ArmBack(k int, onReady func(*Snapshot)) {
	half := w.alpha / 2
	if k < 0 || k >= half {
		panic(fmt.Sprintf("window: ArmBack(%d) outside [0, %d)", k, half))
	}
	// Freeze points are kept in arming order, so their remaining counts
	// never fall along the list: this one goes after every point armed at
	// or before its message and before those armed since.
	p := &pending{remaining: half - k, onReady: onReady}
	i := len(w.armed)
	for i > 0 && w.armed[i-1].remaining > p.remaining {
		i--
	}
	w.armed = slices.Insert(w.armed, i, p)
}

// ArmedCount reports how many freeze points are waiting to fill.
func (w *Dual) ArmedCount() int { return len(w.armed) }

// Flush fires every armed snapshot immediately with whatever the window
// currently holds — used at end of stream so trailing faults still get a
// (possibly shorter) snapshot.
func (w *Dual) Flush() {
	if len(w.armed) == 0 {
		return
	}
	armed := w.armed
	w.armed = nil
	// One ring copy serves every armed pending; fault indexes differ, so
	// each gets its own Snapshot over the shared buffer.
	buf := w.sharedCopy(len(armed))
	for _, p := range armed {
		idx := w.size - 1 - (w.alpha/2 - p.remaining)
		if idx < 0 {
			idx = 0
		}
		p.onReady(w.snapshot(buf, idx))
	}
}
