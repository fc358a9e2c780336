package main

import (
	"math"
	"sort"
	"time"

	"fudj"
	"fudj/internal/trace"
)

// percentile returns the p-th percentile (0 < p <= 1) of xs by the
// nearest-rank rule; 0 for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the middle two, so that a
// run of two rounds does not report its slower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// spread is (max-min)/median: the noise the rounds of one run show.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is an order-independent multiset checksum of a result: the
// row count plus the wrapping sum of one mixed hash per row. A dropped
// or duplicated row changes both fields.
type digest struct {
	Rows int64
	Sum  uint64
}

func digestOf(rows []fudj.Record) digest {
	d := digest{Rows: int64(len(rows))}
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, v := range r {
			h = (h ^ v.Hash()) * 1099511628211
		}
		// splitmix64 finalizer: without it, rows differing in one
		// column could cancel in the sum.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		d.Sum += h
	}
	return d
}

// interval is a half-open time range, in nanoseconds from any origin.
type interval struct{ lo, hi int64 }

// covered returns the total length of the union of the intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, at), min(iv.hi, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it the children
// selected by isChild cover (overlapping children count once).
func selfTime(sp *trace.Span, isChild func(*trace.Span) bool) time.Duration {
	start := sp.Start()
	var ivs []interval
	for _, c := range sp.Children() {
		if isChild(c) {
			lo := int64(c.Start().Sub(start))
			ivs = append(ivs, interval{lo, lo + int64(c.Duration())})
		}
	}
	return sp.Duration() - time.Duration(covered(0, int64(sp.Duration()), ivs))
}
