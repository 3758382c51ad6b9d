package stats

import (
	"iter"
	"math"
	"math/bits"
	"slices"
)

// kthBits caps the selection histogram at 2^16 buckets, and kthCollect is
// the largest bucket Kth collects instead of histogramming it again.
const (
	kthBits    = 16
	kthCollect = 1 << kthBits
)

// Kth returns the k-th smallest value (0-based, clamped to the sequence) of
// values, exactly, in the order sort.Float64s gives: NaN first. An empty
// sequence returns 0. values must yield the same multiset on every
// iteration; the order may differ.
//
// It is a radix selection on an order-preserving uint64 key: one pass finds
// the minimum and maximum key; each further pass histograms the keys of the
// candidate range on their top significant bits (2^16 buckets at most,
// fewer for short inputs) and narrows the range to the bucket holding rank
// k. A range one value wide is the answer; a bucket of at most 2^16 keys is
// collected and sorted. Memory is O(min(n, 2^16)) at any length n, and
// nothing of size n is ever copied.
func Kth(values iter.Seq[float64], k int) float64 {
	n := 0
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for x := range values {
		u := sortKey(x)
		lo, hi = min(lo, u), max(hi, u)
		n++
	}
	if n == 0 {
		return 0
	}
	if lo == hi {
		return fromSortKey(lo)
	}
	// Invariant: the answer lies in [lo, hi], which holds count keys, k of
	// them below the answer.
	k = max(0, min(k, n-1))
	count := n
	width := min(kthBits, bits.Len(uint(n)))
	hist := make([]int, 1<<width)
	for pass := 0; lo < hi && (pass == 0 || count > kthCollect); pass++ {
		clear(hist)
		shift := max(0, bits.Len64(hi-lo)-width)
		for x := range values {
			if u := sortKey(x); u >= lo && u <= hi {
				hist[(u-lo)>>shift]++
			}
		}
		c := 0
		for k >= hist[c] {
			k -= hist[c]
			c++
		}
		count = hist[c]
		lo += uint64(c) << shift
		if span := uint64(1)<<shift - 1; hi-lo > span {
			hi = lo + span
		}
	}
	if lo == hi {
		return fromSortKey(lo)
	}
	bucket := make([]uint64, 0, count)
	for x := range values {
		if u := sortKey(x); u >= lo && u <= hi {
			bucket = append(bucket, u)
		}
	}
	slices.Sort(bucket)
	return fromSortKey(bucket[k])
}

// sortKey maps x to a uint64 whose unsigned order is sort.Float64s' order:
// every NaN to 0, below -Inf; then the IEEE-754 total order, with the sign
// bit flipped for positives and all bits flipped for negatives.
func sortKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// fromSortKey inverts sortKey (every NaN comes back as the same NaN).
func fromSortKey(u uint64) float64 {
	switch {
	case u == 0:
		return math.NaN()
	case u>>63 != 0:
		return math.Float64frombits(u &^ (1 << 63))
	default:
		return math.Float64frombits(^u)
	}
}
