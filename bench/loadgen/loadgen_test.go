package loadgen

import (
	"testing"
	"time"
)

func TestCapPollsEvery64AndSleepsNeverSpins(t *testing.T) {
	polls, sleeps := 0, 0
	inflight := uint64(5000)
	c := &Cap{
		Limit: 2048, Every: 64,
		InFlight: func() uint64 { polls++; return inflight },
		// Each sleep lets the writer flush 1000 frames.
		Sleep: func(d time.Duration) {
			sleeps++
			if d <= 0 {
				t.Fatalf("sleep of %v is a spin", d)
			}
			inflight -= 1000
		},
	}
	for i := 0; i < 63; i++ {
		c.Tick()
	}
	if polls != 0 {
		t.Fatalf("polled %d times before the 64th send", polls)
	}
	c.Tick()
	// 5000 -> 4000 -> 3000 -> 2000: three sleeps, four polls, and every
	// poll over the limit was followed by a sleep, not another poll.
	if sleeps != 3 || polls != 4 {
		t.Fatalf("sleeps=%d polls=%d, want 3 and 4", sleeps, polls)
	}
	if c.Max != 5000 || c.Waited != 3*capNap {
		t.Fatalf("Max=%d Waited=%v", c.Max, c.Waited)
	}
	for i := 0; i < 64; i++ {
		c.Tick()
	}
	if sleeps != 3 || polls != 5 {
		t.Fatalf("under the limit: sleeps=%d polls=%d, want 3 and 5", sleeps, polls)
	}
}

func TestScheduleDueSleepAndLateness(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	var slept []time.Duration
	s := &Schedule{
		Start: base, T0: 5_000_000_000, Compress: 30,
		Now:   func() time.Time { return now },
		Sleep: func(d time.Duration) { slept = append(slept, d); now = now.Add(d) },
	}
	// 3 sim-seconds after T0 at 30x is due 100 ms after Start.
	if got := s.Due(8_000_000_000).Sub(base); got != 100*time.Millisecond {
		t.Fatalf("Due = %v, want 100ms", got)
	}
	s.Wait(8_000_000_000)
	if len(slept) != 1 || slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want one 100ms sleep", slept)
	}
	// 50 µs early: under the slack, so no sleep.
	now = base.Add(100*time.Millisecond - 50*time.Microsecond)
	s.Wait(8_000_000_000)
	if len(slept) != 1 {
		t.Fatalf("slept when only 50µs early: %v", slept)
	}
	if s.LateMax != 0 {
		t.Fatalf("LateMax = %v before any lateness", s.LateMax)
	}
	// The generator falls 7 ms behind: no sleep, lateness recorded.
	now = base.Add(107 * time.Millisecond)
	s.Wait(8_000_000_000)
	if len(slept) != 1 || s.LateMax != 7*time.Millisecond {
		t.Fatalf("slept=%v LateMax=%v, want no new sleep and 7ms", slept, s.LateMax)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: Percentile must sort
		}
		return v
	}
	if _, err := Percentile(mk(199), 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	v, err := Percentile(mk(220), 0.95)
	if err != nil || v != 209 {
		t.Fatalf("p95 of 1..220 = %v, %v; want 209", v, err)
	}
	if _, err := Percentile(mk(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := Percentile(mk(21), 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Fatal("no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 || Median([]float64{3, 1, 2}) != 2 || Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("median")
	}
}
