package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of the sorted sample s by linear
// interpolation between order statistics (Hyndman–Fan type 7, the
// default of R and numpy). It is NaN for an empty sample.
func quantile[T int64 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return float64(s[len(s)-1])
	}
	return float64(s[lo]) + (h-float64(lo))*float64(s[lo+1]-s[lo])
}

// selectQuantile returns the q-quantile of s as quantile gives it on
// the sorted sample, reordering s in place. Selection is O(len(s)) where
// a sort is O(len(s) log len(s)): the latency windows of the fast
// workloads are most of a run's untimed work.
func selectQuantile(s []int64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	selectKth(s, lo)
	if lo >= len(s)-1 {
		return float64(s[lo])
	}
	return float64(s[lo]) + (h-float64(lo))*float64(slices.Min(s[lo+1:])-s[lo])
}

// selectKth reorders s so that s[k] is the value a sort would put
// there, with no larger value before it and no smaller one after it
// (Hoare's quickselect, middle pivot).
func selectKth(s []int64, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[int(uint(lo+hi)>>1)]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// median sorts s in place and returns its middle value.
func median(s []float64) float64 {
	slices.Sort(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of s (NaN when empty).
func mean(s []int64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// perOp divides a count by an op count, 0 when there were no ops.
func perOp(count float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return count / float64(ops)
}
