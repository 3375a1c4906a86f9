// Package loadgen holds the load generator's pacing rules: the closed
// loop's in-flight cap, the open loop's schedule, and the percentile
// rule for latency samples. They are kept apart from the workloads so
// each rule has a unit test of its own.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Cap keeps a closed loop from running more than Limit frames ahead of
// what the sender has flushed. It polls only every Every sends, and when
// over the limit it sleeps — a Gosched spin here is charged to the
// measured process as CPU it never used.
type Cap struct {
	Limit uint64
	Every int
	// InFlight reports frames handed over but not yet flushed.
	InFlight func() uint64
	Sleep    func(time.Duration)

	n int
	// Waited is the total time spent sleeping at the cap; Max the
	// largest in-flight count observed at a poll.
	Waited time.Duration
	Max    uint64
}

// capNap is how long one sleep at the cap lasts: long enough for the
// writer to flush a socket buffer, short enough not to drain the pipe.
const capNap = 200 * time.Microsecond

// Tick is called after every send.
func (c *Cap) Tick() {
	c.n++
	if c.n < c.Every {
		return
	}
	c.n = 0
	for {
		f := c.InFlight()
		if f > c.Max {
			c.Max = f
		}
		if f <= c.Limit {
			return
		}
		c.Sleep(capNap)
		c.Waited += capNap
	}
}

// Schedule maps the tape's simulated capture times onto wall-clock due
// times for an open loop: a packet captured at sim time s is due at
// Start + (s-T0)/Compress, whether or not the system kept up.
type Schedule struct {
	Start    time.Time
	T0       int64 // sim time of the first packet, Unix ns
	Compress float64
	Now      func() time.Time
	Sleep    func(time.Duration)

	// LateMax is the worst lateness of the generator itself: how long
	// after its due time a packet was actually handed over.
	LateMax time.Duration
}

// earlySlack is the earliness below which the generator does not sleep:
// a sleep shorter than this overshoots by more than it waits.
const earlySlack = 100 * time.Microsecond

// Due is when the packet captured at sim time ns is due.
func (s *Schedule) Due(ns int64) time.Time {
	return s.Start.Add(time.Duration(float64(ns-s.T0) / s.Compress))
}

// Wait blocks until the packet captured at ns is due (sleeping only
// when more than earlySlack early) and records how late the generator is.
func (s *Schedule) Wait(ns int64) {
	due := s.Due(ns)
	early := due.Sub(s.Now())
	if early > earlySlack {
		s.Sleep(early)
		early = due.Sub(s.Now())
	}
	if late := -early; late > s.LateMax {
		s.LateMax = late
	}
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the value is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// Percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank rule. It refuses a percentile with fewer than ten samples
// beyond it. samples is sorted in place.
func Percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := max(int(math.Ceil(float64(n)*p))-1, 0) // nearest rank, 0-based
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, max(beyond, 0), minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank], nil
}

// Median is the middle value (mean of the two middle values for an even
// count); 0 for no samples. vals is sorted in place.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
