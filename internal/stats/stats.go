// Package stats provides streaming summaries (count/mean/min/max plus
// reservoir-sampled quantiles) for per-API latency reporting. The
// analyzer keeps one summary per API so operators get p50/p95/p99
// alongside the anomaly detectors — collectd-style observability over
// GRETEL's own measurements.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
)

// reservoirSize bounds memory per summary; 1024 samples give quantile
// estimates well within a few percent for the smooth latency
// distributions involved.
const reservoirSize = 1024

// Summary is a streaming summary of one series. Not safe for concurrent
// use (the analyzer is single-threaded).
type Summary struct {
	count    uint64
	sum      float64
	min, max float64

	// Deterministic reservoir sampling (xorshift state seeded from the
	// first values) keeps a uniform sample without math/rand.
	reservoir []float64
	rngState  uint64
	sorted    bool
}

// rngSeed is the xorshift state every fresh summary starts from, so
// reservoir sampling is deterministic per series.
const rngSeed = 0x9e3779b97f4a7c15

// NewSummary returns an empty summary. The struct never holds ±Inf
// sentinels: min/max are seeded by the first observation, so every
// accessor — and any serialization of the summary — yields finite
// values even before the first Observe.
func NewSummary() *Summary {
	return &Summary{rngState: rngSeed}
}

func (s *Summary) rand() uint64 {
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return s.rngState
}

// Observe adds one value.
func (s *Summary) Observe(v float64) {
	s.count++
	s.sum += v
	if s.count == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.sorted = false
	if len(s.reservoir) < reservoirSize {
		s.reservoir = append(s.reservoir, v)
		return
	}
	// Vitter's Algorithm R: replace a random slot with probability
	// reservoirSize/count.
	if idx := s.rand() % s.count; idx < reservoirSize {
		s.reservoir[idx] = v
	}
}

// Count reports the number of observations.
func (s *Summary) Count() uint64 { return s.count }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the minimum observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the maximum observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the reservoir.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.reservoir) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.reservoir)
		s.sorted = true
	}
	if q <= 0 {
		return s.reservoir[0]
	}
	if q >= 1 {
		return s.reservoir[len(s.reservoir)-1]
	}
	pos := q * float64(len(s.reservoir)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.reservoir) {
		return s.reservoir[lo]
	}
	return s.reservoir[lo]*(1-frac) + s.reservoir[lo+1]*frac
}

// String renders count/mean/p50/p95/p99/max.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.count, s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99), s.Max())
}

// MarshalJSON emits the operator-facing digest (count, mean, min, max,
// p50/p95/p99). Every field is finite — an empty summary marshals as
// all zeros — so structs embedding a Summary (e.g. core.APILatency)
// are always JSON-encodable.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count          uint64
		Mean, Min, Max float64
		P50, P95, P99  float64
	}{s.Count(), s.Mean(), s.Min(), s.Max(), s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)})
}
