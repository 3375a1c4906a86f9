package export

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gretel/internal/telemetry"
)

func TestSamplerDeltasAndResetDetection(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("core.events_ingested")
	g := reg.Gauge("wal.segments")
	h := reg.Histogram("core.detect")
	reg.RegisterFunc("tracestore.traces", func() float64 { return 7 })

	s := NewSampler(reg, "test")

	c.Add(100)
	g.Set(3)
	h.Observe(8 * time.Millisecond)
	out, n := s.Sample(nil, time.Unix(100, 0))
	if n != 4 {
		t.Fatalf("first sample: %d points, want 4\n%s", n, out)
	}
	txt := string(out)
	for _, want := range []string{
		"core.events_ingested,", "delta=100i", "total=100i",
		"wal.segments,", "value=3i",
		"tracestore.traces,", "value=7",
		"core.detect,", "count=1i", "p50_ms=8", "max_ms=8",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("first sample missing %q:\n%s", want, txt)
		}
	}

	// Second interval: counter advanced by 50, histogram idle.
	c.Add(50)
	out, n = s.Sample(nil, time.Unix(101, 0))
	if n != 3 { // idle histogram skipped
		t.Fatalf("second sample: %d points, want 3\n%s", n, out)
	}
	txt = string(out)
	if !strings.Contains(txt, "delta=50i") || !strings.Contains(txt, "total=150i") {
		t.Fatalf("second sample wrong counter delta:\n%s", txt)
	}
	if strings.Contains(txt, "core.detect") {
		t.Fatalf("idle histogram should be skipped:\n%s", txt)
	}

	// Registry reset mid-run (the experiments harness does this): the
	// post-reset total must become the interval, not a negative delta.
	reg.Reset()
	c.Add(30)
	h.Observe(2 * time.Millisecond)
	out, _ = s.Sample(nil, time.Unix(102, 0))
	txt = string(out)
	if !strings.Contains(txt, "delta=30i") || !strings.Contains(txt, "total=30i") {
		t.Fatalf("reset not detected for counter:\n%s", txt)
	}
	if !strings.Contains(txt, "count=1i") {
		t.Fatalf("reset not detected for histogram:\n%s", txt)
	}
}

func TestSamplerHistogramIntervalQuantiles(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat")
	s := NewSampler(reg, "test")

	// First interval: 100 observations at ~1ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	out, _ := s.Sample(nil, time.Unix(1, 0))
	if !strings.Contains(string(out), "count=100i") {
		t.Fatalf("first interval count wrong:\n%s", out)
	}

	// Second interval: a single 50ms observation. Interval quantiles
	// must reflect only this interval — p50 ≈ 50ms, not ~1ms.
	h.Observe(50 * time.Millisecond)
	out, _ = s.Sample(nil, time.Unix(2, 0))
	txt := string(out)
	if !strings.Contains(txt, "count=1i") {
		t.Fatalf("second interval count wrong:\n%s", txt)
	}
	if !strings.Contains(txt, "p50_ms=50") || !strings.Contains(txt, "max_ms=50") {
		t.Fatalf("interval quantiles not delta'd (want p50_ms=50, max_ms=50):\n%s", txt)
	}
}

func TestSamplerSteadyStateAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("c%d", i)).Add(uint64(i))
		reg.Gauge(fmt.Sprintf("g%d", i)).Set(int64(i))
		reg.Histogram(fmt.Sprintf("h%d", i)).Observe(time.Duration(i+1) * time.Millisecond)
	}
	s := NewSampler(reg, "test")
	buf := make([]byte, 0, 1<<16)
	ts := time.Unix(50, 0)
	// Warm up: maps, scratch slices, and histogram captures size up.
	for i := 0; i < 3; i++ {
		buf2, _ := s.Sample(buf[:0], ts)
		_ = buf2
	}
	allocs := testing.AllocsPerRun(50, func() {
		reg.Counter("c0").Inc()
		reg.Histogram("h0").Observe(time.Millisecond)
		out, _ := s.Sample(buf[:0], ts)
		if cap(out) > cap(buf) {
			buf = out[:0] // keep the grown buffer for the next round
		}
	})
	// Inc/Observe allocate nothing; the sample path may touch a few
	// map-internal allocations on some runtimes but must not rebuild
	// maps or buffers per scrape.
	if allocs > 4 {
		t.Fatalf("Sample allocates %.0f allocs/op steady-state, want ~0", allocs)
	}
}
