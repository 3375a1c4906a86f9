package metrics

import (
	"testing"
	"time"

	"gretel/internal/cluster"
	"gretel/internal/simclock"
	"gretel/internal/trace"
)

func ts(sec int) time.Time { return simclock.Epoch.Add(time.Duration(sec) * time.Second) }

func TestSeriesWindow(t *testing.T) {
	s := &Series{name: "n/cpu"}
	for i := 0; i < 10; i++ {
		s.Append(ts(i), float64(i))
	}
	got := s.Window(ts(3), ts(6)).Points
	if len(got) != 4 || got[0].Value != 3 || got[3].Value != 6 {
		t.Fatalf("Window = %v", got)
	}
	if len(s.Window(ts(100), ts(200)).Points) != 0 {
		t.Fatal("empty window not empty")
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCollectorRecordAndSeries(t *testing.T) {
	c := NewCollector()
	c.Record("nova-node", MetricCPU, ts(0), 5)
	c.Record("nova-node", MetricCPU, ts(1), 6)
	s := c.Series("nova-node", MetricCPU)
	if s == nil || s.Len() != 2 {
		t.Fatalf("series missing or wrong length: %v", s)
	}
	if c.Series("ghost", MetricCPU) != nil {
		t.Fatal("ghost series exists")
	}
}

func TestPollNodeRecordsAllMetrics(t *testing.T) {
	sim := simclock.New()
	f := cluster.NewFabric(sim, 1)
	n := f.AddNode("glance-node", "10.0.0.6", trace.SvcGlance)
	c := NewCollector()
	c.PollNode(n, sim.Now())
	for _, m := range MetricNames {
		if s := c.Series("glance-node", m); s == nil || s.Len() != 1 {
			t.Errorf("metric %q not recorded", m)
		}
	}
}

func TestStartPollingPeriodAndStop(t *testing.T) {
	sim := simclock.New()
	f := cluster.NewFabric(sim, 1)
	f.AddNode("a", "10.0.0.1", trace.SvcNova)
	down := f.AddNode("b", "10.0.0.2", trace.SvcNeutron)
	down.Up = false
	c := NewCollector()
	c.StartPolling(f, sim, time.Second, func() bool { return sim.Now().After(ts(10)) })
	sim.RunUntil(ts(30))
	s := c.Series("a", MetricCPU)
	if s == nil {
		t.Fatal("no samples for node a")
	}
	// Polls at t=1..10 inclusive: 10 samples.
	if s.Len() != 10 {
		t.Fatalf("sample count = %d, want 10", s.Len())
	}
	if c.Series("b", MetricCPU) != nil {
		t.Fatal("down node was polled")
	}
}

func TestCollectorWindows(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 20; i++ {
		c.Record("n1", MetricCPU, ts(i), float64(i))
		c.Record("n1", MetricDiskFree, ts(i), 100-float64(i))
	}
	cpu := c.Series("n1", MetricCPU).Window(ts(5), ts(8))
	disk := c.Series("n1", MetricDiskFree).Window(ts(5), ts(8))
	if len(cpu.Points) != 4 || len(disk.Points) != 4 {
		t.Fatalf("window sizes: cpu=%d disk=%d", len(cpu.Points), len(disk.Points))
	}
	if w := c.Series("n1", MetricNet).Window(ts(5), ts(8)); len(w.Points) != 0 || w.ID != (WindowID{}) {
		t.Fatalf("unexpected net samples: %+v", w)
	}
	if got := c.Series("n1", MetricCPU).Name(); got != "n1/cpu" {
		t.Fatalf("Name = %q", got)
	}
}

// TestAppendDropsOutOfOrder pins the invariant windows rest on: a sample
// older than the series' newest is refused, an equal-time one is kept.
func TestAppendDropsOutOfOrder(t *testing.T) {
	s := &Series{}
	for _, c := range []struct {
		sec  int
		want bool
	}{{5, true}, {7, true}, {6, false}, {7, true}, {8, true}, {0, false}} {
		if got := s.Append(ts(c.sec), float64(c.sec)); got != c.want {
			t.Fatalf("Append(t=%d) = %v, want %v", c.sec, got, c.want)
		}
	}
	pts := s.Window(ts(0), ts(100)).Points
	if len(pts) != 4 {
		t.Fatalf("kept %d samples, want 4: %v", len(pts), pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time.Before(pts[i-1].Time) {
			t.Fatalf("series out of order: %v", pts)
		}
	}
}

// TestWindowIdentity: equal IDs mean equal samples — across appends,
// across trimming (ordinals are lifetime positions, not slice indices) —
// and a view taken earlier is never rewritten.
func TestWindowIdentity(t *testing.T) {
	s := &Series{retain: 10 * time.Second}
	for i := 0; i < 8; i++ {
		s.Append(ts(i), float64(i))
	}
	w1 := s.Window(ts(2), ts(6))
	if w1.ID != (WindowID{2, 7}) {
		t.Fatalf("ID = %+v, want {2 7}", w1.ID)
	}
	held := append([]Point(nil), w1.Points...)
	s.Append(ts(8), 8)
	if w := s.Window(ts(2), ts(6)); w.ID != w1.ID {
		t.Fatalf("same range after an append outside it: %+v vs %+v", w.ID, w1.ID)
	}
	if w := s.Window(ts(2), ts(8)); w.ID == w1.ID {
		t.Fatal("window that grew kept its identity")
	}
	if w := s.Window(ts(3), ts(6)); w.ID == w1.ID {
		t.Fatal("window that lost its first sample kept its identity")
	}
	for i := 9; i < 40; i++ { // trims everything w1 saw
		s.Append(ts(i), float64(i))
	}
	if got := s.Len(); got != 11 {
		t.Fatalf("retained %d samples, want 11 (10 s at 1/s, both ends)", got)
	}
	w2 := s.Window(ts(32), ts(36))
	if len(w2.Points) != len(w1.Points) || w2.ID == w1.ID || w2.ID != (WindowID{32, 37}) {
		t.Fatalf("trimmed series aliased two windows: %+v vs %+v", w2.ID, w1.ID)
	}
	for i, p := range w1.Points {
		if p != held[i] {
			t.Fatalf("held view rewritten at %d: %v != %v", i, p, held[i])
		}
	}
	if w := s.Window(ts(0), ts(5)); len(w.Points) != 0 || w.ID != (WindowID{}) {
		t.Fatalf("window behind the horizon: %+v", w)
	}
}

// TestRetentionBoundsADay: a day of 1 s polls holds at most horizon × rate
// points (plus the boundary sample) at every step.
func TestRetentionBoundsADay(t *testing.T) {
	c := NewCollector()
	c.Retention = 10 * time.Minute
	for i := 0; i < 86400; i++ {
		c.Record("n", MetricCPU, ts(i), 1)
		if n := c.Series("n", MetricCPU).Len(); n > 601 {
			t.Fatalf("at %d s: %d points retained", i, n)
		}
	}
	if s := c.Series("n", MetricCPU); cap(s.points) > 4*601 {
		t.Fatalf("storage not released: cap %d", cap(s.points))
	}
}

// TestConcurrentRecordAndWindow runs writers against window readers; run
// under -race. Every window a reader sees is time-ordered and agrees with
// its identity.
func TestConcurrentRecordAndWindow(t *testing.T) {
	c := NewCollector()
	c.Retention = 50 * time.Second
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Record("n", MetricNames[i%2], ts(i/2), float64(i/2))
		}
	}()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		default:
		}
		for _, m := range MetricNames[:2] {
			w := c.Series("n", m).Window(ts(0), ts(5000))
			id := w.ID
			if uint64(len(w.Points)) != id.Hi-id.Lo {
				t.Fatalf("identity %+v over %d points", id, len(w.Points))
			}
			for i, p := range w.Points {
				if p.Value != float64(id.Lo)+float64(i) {
					t.Fatalf("ordinal %d holds %v", id.Lo+uint64(i), p)
				}
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	pts := []Point{{ts(0), 2}, {ts(1), 8}, {ts(2), 5}}
	st := Summarize(pts)
	if st.N != 3 || st.Min != 2 || st.Max != 8 || st.Mean != 5 || st.Last != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize")
	}
	if st.String() == "" {
		t.Fatal("empty string")
	}
}
