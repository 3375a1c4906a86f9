package core

import (
	"testing"
	"time"
)

// TestLatTrackObserveSteadyStateAllocFree pins the per-pair cost on a
// known API: one map probe, the summary and the detector, no allocation
// once the detector's window and the summary's reservoir have filled.
func TestLatTrackObserveSteadyStateAllocFree(t *testing.T) {
	var cfg Config
	cfg.defaults(testLib())
	lat := newLatTrack(cfg.Latency)
	apis := [...]struct {
		api  string
		base time.Duration
	}{{"/list", 10 * time.Millisecond}, {"/status", 40 * time.Millisecond}}
	i := 0
	observe := func() {
		k := apis[i%len(apis)]
		jitter := time.Duration(i%7) * 100 * time.Microsecond
		lat.observe(get(k.api), at(i), k.base+jitter, &cfg)
		i++
	}
	for i < 4096 {
		observe()
	}
	if allocs := testing.AllocsPerRun(2000, observe); allocs != 0 {
		t.Fatalf("latTrack.observe on a known API allocated %.2f allocs/op", allocs)
	}
	if len(lat.apis) != len(apis) {
		t.Fatalf("tracked %d APIs, want %d", len(lat.apis), len(apis))
	}
}
