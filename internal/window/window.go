// Package window implements GRETEL's sliding-window machinery (§5.3.1 and
// §6): a dual-buffer window of the most recent α messages, kept in
// fixed-size chunks; freeze-on-fault snapshots capturing both the past
// and the future of a faulty message, which pin the chunks they span
// rather than copy them; and the growing context buffer the operation
// detector walks outward from the fault.
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
	"unsafe"

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

// The window keeps its events in chunks of chunkLen consecutive pushes,
// with their words, so a snapshot can pin the chunks it spans instead of
// copying α events.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// chunk holds chunkLen consecutive pushes and their words. The window
// writes each slot once, in push order, and never again until the chunk
// is recycled, so a snapshot reads the slots it spans while later pushes
// fill the rest. pins counts its holders: the window while any of its
// events is among the last α, and every snapshot spanning it. The holder
// that drops the last pin recycles it.
type chunk struct {
	evs   [chunkLen]trace.Event
	words [chunkLen]uint32
	pins  int32 // guarded by recycler.mu
	// The pad rounds the chunk to 16 bytes, so that in New's block every
	// chunk's events keep the 16-byte alignment a ring's would: with
	// events off it, copies straddled cache lines and a push took about
	// 10 % longer.
	_ [(16 - (chunkLen*(unsafe.Sizeof(trace.Event{})+4)+4)%16) % 16]byte
}

// recycler holds the chunks nothing holds any more, for the window to
// reuse: up to keep of them, what the window itself can span, in a free
// list, and the rest of a burst (a detect-pool backlog of snapshots held
// at once) in spill, which the garbage collector may empty. Release may
// run on detect workers, so pins, consumer counts and the free list sit
// behind one lock, taken once per frozen snapshot, once per Release and
// once per chunk the window takes or evicts.
type recycler struct {
	mu     sync.Mutex
	chunks []*chunk
	keep   int
	spill  sync.Pool
}

// Snapshot is a frozen fault-centered message window: the α messages
// around the fault, oldest first, read in place from the window chunks
// it pins.
type Snapshot struct {
	// FaultIndex locates the offending message: At(FaultIndex).
	FaultIndex int

	// chunks are the pinned chunks, oldest first, held in few for any α
	// up to 960, so a freeze makes one allocation.
	chunks []*chunk
	few    [16]*chunk
	off, n int // the snapshot is slots [off, off+n) of chunks, end to end
	// worded is false when any of its events was pushed without a word
	// (Push).
	worded bool
	refs   int32 // consumers yet to Release, guarded by rec.mu
	rec    *recycler
}

// Len returns the number of messages in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// At returns message i, oldest first. The event lives in a window chunk:
// it must not be written, nor used after Release.
func (s *Snapshot) At(i int) *trace.Event {
	if uint(i) >= uint(s.n) {
		panic(fmt.Sprintf("window: snapshot index %d out of range [0, %d)", i, s.n))
	}
	p := s.off + i
	return &s.chunks[p>>chunkBits].evs[p&(chunkLen-1)]
}

// Words appends the snapshot's words to dst, one slice per pinned chunk,
// oldest first: the word of message i is the i-th word across them. It
// appends nothing when any of the messages was pushed without a word
// (Push). The slices alias the window chunks and are valid until Release.
func (s *Snapshot) Words(dst [][]uint32) [][]uint32 {
	if !s.worded {
		return dst
	}
	last := len(s.chunks) - 1
	for k, c := range s.chunks {
		lo, hi := 0, chunkLen
		if k == 0 {
			lo = s.off
		}
		if k == last {
			hi = (s.off+s.n-1)&(chunkLen-1) + 1
		}
		dst = append(dst, c.words[lo:hi])
	}
	return dst
}

// Release is one consumer's release of the snapshot: once every consumer
// has released it, its chunks are unpinned, and a chunk that has left
// the window and that no other snapshot pins is recycled. Call it when
// the detector is done with the snapshot; nothing read from it may be
// used afterwards, and At panics. Each consumer must release at most
// once; a release after the last one does nothing, since a frozen
// Snapshot is never reused, and concurrent releases from different
// detect workers are safe.
func (s *Snapshot) Release() {
	if s == nil || s.rec == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if s.refs--; s.refs == 0 {
		for _, c := range s.chunks {
			r.unpin(c)
		}
		s.chunks, s.n = nil, 0
	}
	r.mu.Unlock()
}

// unpin drops one pin of c, recycling it at the last. Call with r.mu
// held.
func (r *recycler) unpin(c *chunk) {
	if c.pins--; c.pins > 0 {
		return
	}
	if len(r.chunks) < r.keep {
		r.chunks = append(r.chunks, c)
	} else {
		r.spill.Put(c)
	}
}

// ContextBounds returns the [lo, hi) range of messages within beta
// messages centered on the fault (beta/2 on each side), clamped to the
// snapshot bounds — the context buffer β that sits atop the sliding
// window.
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
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

// Covered reports whether a context of the given beta already spans the
// whole snapshot, i.e. growing further cannot add messages.
func (s *Snapshot) Covered(beta int) bool {
	half := beta / 2
	return s.FaultIndex-half <= 0 && s.FaultIndex+half+1 >= s.n
}

type pending struct {
	remaining int
	onReady   func(*Snapshot)
}

// Dual is the dual-buffer receive window: the last α messages, in
// chunks, plus armed freeze points waiting for their future half to
// fill. Push, Arm, and Flush are not safe for concurrent use; the event
// receiver drives them from one goroutine (§5.2: TCP delivery preserves
// order). Snapshot.Release alone may be called from other goroutines —
// detect workers unpin chunks when they finish.
type Dual struct {
	alpha int
	// chunks holds the window's chunks, oldest first; chunks[0] starts
	// at push number base (0-based, a multiple of chunkLen), and the
	// last one, never full, takes the next push.
	chunks []*chunk
	base   uint64
	pushed uint64
	// bare is the Pushed count just after the last push that carried
	// no word: a snapshot holding that push has no Words.
	bare  uint64
	armed []*pending
	rec   *recycler
}

// MinAlpha is the smallest window New builds: a smaller alpha gets this.
const MinAlpha = 2

// New returns a window of size alpha (minimum MinAlpha). It allocates the
// chunks α consecutive pushes can span up front, in one block as a ring
// would be: with a separate allocation per chunk a push took about 15 %
// longer (a push micro-benchmark on a 2-core Xeon VM).
func New(alpha int) *Dual {
	alpha = max(alpha, MinAlpha)
	block := make([]chunk, (alpha-1)/chunkLen+2)
	w := &Dual{alpha: alpha, rec: &recycler{keep: len(block)}}
	for i := range block { // taken last first: pushes walk the block upwards
		w.rec.chunks = append(w.rec.chunks, &block[len(block)-1-i])
	}
	w.chunks = append(w.chunks, w.take())
	return w
}

// Alpha returns the configured window size.
func (w *Dual) Alpha() int { return w.alpha }

// Len reports the current fill level (at most α).
func (w *Dual) Len() int { return int(min(w.pushed, uint64(w.alpha))) }

// Pushed reports the total number of messages ever pushed.
func (w *Dual) Pushed() uint64 { return w.pushed }

// Push appends a message, evicting the oldest once full, and fires any
// armed snapshot whose future half has filled. It carries no word, so
// snapshots holding the message have no Words.
func (w *Dual) Push(ev trace.Event) {
	w.bare = w.pushed + 1 // before PushSeq fires a snapshot holding it
	w.PushSeq(&ev, ev.Seq, 0)
}

// PushSeq is Push of *ev numbered seq, carrying the caller's word: the
// window's copy, the only one it makes, carries seq in place of ev.Seq,
// and *ev is not written. Snapshots hand the word back in Words, at the
// event's index; the window never reads it.
func (w *Dual) PushSeq(ev *trace.Event, seq uint64, word uint32) {
	j := int(w.pushed & (chunkLen - 1))
	c := w.chunks[len(w.chunks)-1]
	slot := &c.evs[j]
	*slot = *ev
	slot.Seq = seq
	c.words[j] = word
	w.pushed++
	if j == chunkLen-1 || w.pushed >= uint64(w.alpha)+w.base+chunkLen {
		w.turn()
	}

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
	// window, so they all share one Snapshot, with the consumer count
	// set to the number of them.
	idx := w.Len() - 1 - w.alpha/2
	if idx < 0 {
		idx = 0
	}
	snap := w.freeze(len(ready), idx)
	for _, p := range ready {
		p.onReady(snap)
	}
}

// turn is PushSeq's slow path, after a push: the oldest chunk leaves
// the window once the last α pushes are all past it, and a fresh chunk
// is taken once the newest is full — after the eviction, so the chunk
// just left can be the one. It runs out of line, at most twice per
// chunkLen pushes, so the push itself makes no call before its write.
func (w *Dual) turn() {
	r := w.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.pushed >= uint64(w.alpha)+w.base+chunkLen {
		r.unpin(w.chunks[0])
		w.chunks = w.chunks[:copy(w.chunks, w.chunks[1:])]
		w.base += chunkLen
	}
	if w.pushed&(chunkLen-1) == 0 {
		w.chunks = append(w.chunks, w.take())
	}
}

// take returns a chunk for the window to fill, pinned by the window: a
// recycled one when any is free, from the free list first. Call it with
// w.rec.mu held.
func (w *Dual) take() *chunk {
	r := w.rec
	var c *chunk
	if n := len(r.chunks); n > 0 {
		c = r.chunks[n-1]
		r.chunks = r.chunks[:n-1]
	} else if c, _ = r.spill.Get().(*chunk); c == nil {
		c = new(chunk)
	}
	c.pins = 1
	return c
}

// freeze pins the chunks the window's current contents span into a
// snapshot of them held by refs consumers.
func (w *Dual) freeze(refs, faultIdx int) *Snapshot {
	r := w.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{rec: r}
	first := w.pushed - uint64(w.Len())
	s.off, s.n, s.FaultIndex = int(first-w.base), w.Len(), faultIdx
	// The newest chunk holds no event yet when the last push filled the
	// one before it.
	spans := w.chunks[:(s.off+s.n+chunkLen-1)>>chunkBits]
	for _, c := range spans {
		c.pins++
	}
	s.chunks = append(s.few[:0], spans...)
	s.worded = w.bare <= first
	s.refs = int32(refs)
	return s
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
// (possibly shorter) snapshot. Fault indexes differ, so each armed
// freeze point gets its own Snapshot over the same pinned chunks.
func (w *Dual) Flush() {
	if len(w.armed) == 0 {
		return
	}
	armed := w.armed
	w.armed = nil
	for _, p := range armed {
		idx := w.Len() - 1 - (w.alpha/2 - p.remaining)
		if idx < 0 {
			idx = 0
		}
		p.onReady(w.freeze(1, idx))
	}
}
