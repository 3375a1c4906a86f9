// Package simclock provides a virtual clock and a deterministic
// discrete-event scheduler used by the OpenStack simulation.
//
// All simulated work is expressed as callbacks scheduled at virtual
// timestamps. Running the simulation executes callbacks in timestamp order
// (FIFO among equal timestamps), advancing the virtual clock as it goes.
// Given a fixed seed for any randomness in the callbacks themselves, a
// simulation run is bit-for-bit reproducible.
package simclock

import (
	"container/heap"
	"time"
)

// Clock supplies the current time. The simulator implements it with a
// virtual clock; Real implements it with the wall clock, so components can
// be reused unchanged inside and outside the simulation.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Epoch is the virtual time at which every simulation starts. A fixed epoch
// keeps all simulated timestamps reproducible.
var Epoch = time.Date(2016, time.December, 12, 0, 0, 0, 0, time.UTC)

type item struct {
	at  time.Time
	seq uint64
	fn  func()
}

type queue []*item

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*item)) }
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Sim is a single-threaded discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; the simulation runs on one goroutine
// by design so that event order is deterministic.
type Sim struct {
	now  time.Time
	seq  uint64
	q    queue
	runs uint64
}

// New returns a simulator whose clock starts at Epoch.
func New() *Sim { return &Sim{now: Epoch} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Processed reports how many events have been executed so far.
func (s *Sim) Processed() uint64 { return s.runs }

// Pending reports how many events are waiting to run.
func (s *Sim) Pending() int { return len(s.q) }

// At schedules fn to run at virtual time t. Times in the past run at the
// current virtual time (the clock never moves backward).
func (s *Sim) At(t time.Time, fn func()) {
	if t.Before(s.now) {
		t = s.now
	}
	s.seq++
	heap.Push(&s.q, &item{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative
// durations are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Every schedules fn to run every period starting after the first period
// elapses, until stop returns true (checked before each run).
func (s *Sim) Every(period time.Duration, stop func() bool, fn func()) {
	if period <= 0 {
		panic("simclock: Every requires a positive period")
	}
	var tick func()
	tick = func() {
		if stop != nil && stop() {
			return
		}
		fn()
		s.After(period, tick)
	}
	s.After(period, tick)
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was run.
func (s *Sim) Step() bool {
	if len(s.q) == 0 {
		return false
	}
	it := heap.Pop(&s.q).(*item)
	s.now = it.at
	s.runs++
	it.fn()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps at or before t, then advances
// the clock to t if it has not already passed it.
func (s *Sim) RunUntil(t time.Time) {
	for len(s.q) > 0 && !s.q[0].at.After(t) {
		s.Step()
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// RunFor executes events for a virtual duration d from the current time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
