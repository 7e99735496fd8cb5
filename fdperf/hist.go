package main

import (
	"math/bits"
	"sort"
)

// histSub is the number of sub-buckets per power of two: values land in
// buckets at most 1/histSub (~3%) wide, and quantiles interpolate linearly
// inside a bucket, so a reported percentile moves continuously with the
// data instead of snapping to bucket edges.
const histSub = 32

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds here). Values below 2*histSub are exact; above, bucket
// [m<<e, (m+1)<<e) holds every value with top bits m. It costs no
// allocation per sample, so it can sit on a hot path for millions of
// samples. It is not synchronized: each writer owns one, and readers merge
// after the writers stop.
type hist struct {
	counts [2*histSub + 58*histSub]uint64
	n      uint64
}

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - 6 // v>>e has exactly 6 significant bits: [32, 64)
	return 2*histSub + (e-1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns the bucket's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	i -= 2 * histSub
	e := i/histSub + 1
	m := uint64(i%histSub + histSub)
	return float64(m << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1), interpolated within its
// bucket, or 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(len(h.counts) - 1)
	return lo + width
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
