package tsoutliers

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameSlot reports whether two floats occupy one sort.Float64s position:
// equal values (so -0 and +0) or both NaN.
func sameSlot(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// osDomain is the key space of the differential: heavy duplication plus
// every float the NaN-first order has to place.
var osDomain = []float64{
	math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
	-2.5, -1, 0.25, 0.5, 0.75, 1, 1.5, 3, 1e300, 5e-324,
}

// TestOrderStatAgainstSortedSlice is the differential: after every
// insert and remove the multiset must read, rank for rank, like the live
// keys run through sort.Float64s.
func TestOrderStatAgainstSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ms orderStat
		var live []float64
		check := func(step int, op string) {
			t.Helper()
			want := append([]float64(nil), live...)
			sort.Float64s(want)
			if ms.Len() != len(want) {
				t.Fatalf("seed %d step %d %s: Len = %d, oracle %d", seed, step, op, ms.Len(), len(want))
			}
			for k := range want {
				if got := ms.Kth(k); !sameSlot(got, want[k]) {
					t.Fatalf("seed %d step %d %s: Kth(%d) = %v, oracle %v", seed, step, op, k, got, want[k])
				}
			}
			if got, w := ms.Median(), median(live); !sameSlot(got, w) {
				t.Fatalf("seed %d step %d %s: Median = %v, oracle %v", seed, step, op, got, w)
			}
		}
		for step := 0; step < 1500; step++ {
			switch r := rng.Intn(10); {
			case r < 5 && len(live) < 96:
				v := osDomain[rng.Intn(len(osDomain))]
				if rng.Intn(4) == 0 {
					v = rng.NormFloat64()
				}
				live = append(live, v)
				ms.Insert(v)
				check(step, "insert")
			case r < 9 && len(live) > 0:
				i := rng.Intn(len(live))
				v := live[i]
				live = append(live[:i], live[i+1:]...)
				ms.Remove(v)
				check(step, "remove")
			default:
				// A key that was never inserted: 7 is outside osDomain and
				// NormFloat64 cannot plausibly produce it.
				ms.Remove(7)
				check(step, "remove-absent")
			}
		}
	}
}

func TestOrderStatNaNOrder(t *testing.T) {
	var ms orderStat
	ms.Insert(math.NaN())
	ms.Insert(1)
	ms.Insert(math.NaN())
	ms.Insert(-2)
	if ms.Len() != 4 {
		t.Fatalf("Len = %d", ms.Len())
	}
	// sort.Float64s order: NaN, NaN, -2, 1.
	if !math.IsNaN(ms.Kth(0)) || !math.IsNaN(ms.Kth(1)) {
		t.Fatal("NaNs must sort first")
	}
	if ms.Kth(2) != -2 || ms.Kth(3) != 1 {
		t.Fatalf("order = %v %v", ms.Kth(2), ms.Kth(3))
	}
	ms.Remove(math.NaN())
	ms.Remove(math.NaN())
	if ms.Len() != 2 || ms.Kth(0) != -2 {
		t.Fatalf("after NaN removal: len=%d kth0=%v", ms.Len(), ms.Kth(0))
	}
	ms.Remove(math.NaN()) // no NaN left: no-op
	if ms.Len() != 2 {
		t.Fatalf("absent NaN removal changed Len to %d", ms.Len())
	}
}

func TestOrderStatEdges(t *testing.T) {
	var ms orderStat
	if ms.Len() != 0 || ms.Median() != 0 || ms.Kth(0) != 0 {
		t.Fatal("empty multiset accessors")
	}
	ms.Remove(5) // absent key: no-op
	ms.Insert(3)
	if ms.Median() != 3 || ms.Kth(5) != 0 || ms.Kth(-1) != 0 {
		t.Fatalf("singleton median=%v out-of-range=%v,%v", ms.Median(), ms.Kth(5), ms.Kth(-1))
	}
	// Even count averages the two middle slots exactly like the oracle.
	ms.Insert(4)
	if got, want := ms.Median(), (3.0+4.0)/2; got != want {
		t.Fatalf("even median = %v, want %v", got, want)
	}
	ms.Remove(3.5) // between two present keys: no-op
	if ms.Len() != 2 {
		t.Fatal("absent in-range key removed something")
	}
	ms.Reset()
	if ms.Len() != 0 {
		t.Fatal("Reset left elements")
	}
	for i := 0; i < 10; i++ {
		ms.Insert(float64(i % 3))
	}
	if ms.Len() != 10 || ms.Median() != 1 {
		t.Fatalf("after reuse: len=%d median=%v", ms.Len(), ms.Median())
	}
}

func TestOrderStatSteadyStateAllocFree(t *testing.T) {
	var ms orderStat
	// Grow to the high-water mark: a full window plus the one slot the
	// detector's insert-before-evict ordering needs.
	for i := 0; i < 61; i++ {
		ms.Insert(float64(i))
	}
	ms.Remove(0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		ms.Insert(float64(i%60) + 0.5)
		ms.Median()
		ms.Remove(float64(i%60) + 0.5)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/median/remove allocated %.1f allocs/op", allocs)
	}
}
