package simclock

import (
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("Real clock went backward: %v then %v", a, b)
	}
}

func TestAtOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(Epoch.Add(3*time.Second), func() { got = append(got, 3) })
	s.At(Epoch.Add(1*time.Second), func() { got = append(got, 1) })
	s.At(Epoch.Add(2*time.Second), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Epoch.Add(3*time.Second) {
		t.Errorf("Now() = %v, want %v", s.Now(), Epoch.Add(3*time.Second))
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	s := New()
	var got []int
	at := Epoch.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events ran out of order: %v", got)
		}
	}
}

func TestPastEventsRunNow(t *testing.T) {
	s := New()
	s.RunUntil(Epoch.Add(time.Minute))
	ran := false
	s.At(Epoch, func() { ran = true }) // in the past
	s.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if s.Now().Before(Epoch.Add(time.Minute)) {
		t.Fatalf("clock moved backward to %v", s.Now())
	}
}

func TestAfterNegative(t *testing.T) {
	s := New()
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want epoch", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			s.After(time.Second, recur)
		}
	}
	s.After(0, recur)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != Epoch.Add(4*time.Second) {
		t.Errorf("Now() = %v, want epoch+4s", s.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	hit := 0
	s.After(time.Second, func() { hit++ })
	s.After(time.Hour, func() { hit++ })
	s.RunUntil(Epoch.Add(time.Minute))
	if hit != 1 {
		t.Fatalf("hit = %d, want 1 (only the 1s event)", hit)
	}
	if s.Now() != Epoch.Add(time.Minute) {
		t.Errorf("Now() = %v, want epoch+1m", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
}

func TestEvery(t *testing.T) {
	s := New()
	n := 0
	s.Every(time.Second, func() bool { return n >= 3 }, func() { n++ })
	s.RunUntil(Epoch.Add(10 * time.Second))
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	New().Every(0, nil, func() {})
}

func TestProcessed(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", s.Processed())
	}
}

func TestRunForRelative(t *testing.T) {
	s := New()
	s.RunFor(time.Minute)
	s.RunFor(time.Minute)
	if s.Now() != Epoch.Add(2*time.Minute) {
		t.Fatalf("Now() = %v, want epoch+2m", s.Now())
	}
}
