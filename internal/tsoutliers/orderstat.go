// Selectable multiset over float64 keys: a sorted slice. Insert and
// Remove binary-search the position and shift the tail with copy, Kth
// is an index. The detector keeps one per series for the inlier
// window's absolute deviations, so the rolling MAD is two indexed reads
// instead of a full re-sort per observation.
//
// Cost is linear in the window with a tiny constant: a memmove of at
// most Window floats, 480 bytes at the default 60 — the only window any
// product caller configures. The gated detector scenario tracks it at
// 60, 240 and 960.
//
// The slice is the sorted multiset, so Kth(k) is by construction the
// float64 the k-th slot of a sort.Float64s'd copy would hold and Median
// reproduces the naive sort-and-pick median bit for bit — the property
// the detector's old-vs-new equivalence tests pin. The key order matches
// sort.Float64s: NaN sorts before everything else, and all NaNs compare
// equal. -0 and +0 occupy one sort position; which of the two a rank
// inside their run yields is as unspecified as it is for sort.Float64s
// (the detector only stores |x - level|, never -0).
//
// Once the slice has grown to the window's high-water mark, steady-state
// maintenance allocates nothing.
package tsoutliers

import "math"

// orderStat is the selectable multiset. The zero value is ready to use.
type orderStat struct {
	s []float64 // ascending in osLess order
}

// osLess orders keys like sort.Float64s: ascending with NaN first.
func osLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// osEq collapses keys that occupy one sort position: equal values, and
// any pair of NaNs.
func osEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// Len reports the total element count, duplicates included.
func (t *orderStat) Len() int { return len(t.s) }

// search returns the first index whose key is greater than v: v's
// insertion point, one past its last occurrence if present.
//
// A key at or above the maximum skips the binary search: every key of a
// flat series and most of a coarsely quantized one (resource metrics,
// which rca replays a window at a time), where the two searches per
// sample, not the memmove, were the cost (DESIGN.md "Incremental order
// statistics"). A NaN on either side fails the comparison and takes the
// search. A plain >= rather than osLess keeps search inlinable.
func (t *orderStat) search(v float64) int {
	lo, hi := 0, len(t.s)
	if hi > 0 && v >= t.s[hi-1] {
		return hi
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if osLess(v, t.s[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Insert adds one occurrence of v.
func (t *orderStat) Insert(v float64) {
	i := t.search(v)
	t.s = append(t.s, 0)
	copy(t.s[i+1:], t.s[i:])
	t.s[i] = v
}

// Remove drops one occurrence of v. Removing an absent key is a no-op
// (the detector only ever evicts values it inserted).
func (t *orderStat) Remove(v float64) {
	i := t.search(v) - 1
	if i >= 0 && osEq(t.s[i], v) {
		t.s = append(t.s[:i], t.s[i+1:]...)
	}
}

// Kth returns the k-th smallest element (0-based, duplicates counted):
// the value sorted-multiset[k] would hold. Out-of-range ranks yield 0.
func (t *orderStat) Kth(k int) float64 {
	if k < 0 || k >= len(t.s) {
		return 0
	}
	return t.s[k]
}

// Median reproduces the naive sorted-slice median exactly: s[m/2] for
// odd m, (s[m/2-1]+s[m/2])/2 for even, 0 when empty.
func (t *orderStat) Median() float64 {
	m := len(t.s)
	if m == 0 {
		return 0
	}
	if m%2 == 1 {
		return t.s[m/2]
	}
	return (t.s[m/2-1] + t.s[m/2]) / 2
}

// Reset empties the multiset, keeping its capacity.
func (t *orderStat) Reset() { t.s = t.s[:0] }
