package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the figure is one or two outliers.
const minBeyond = 10

// Dist is a sample of durations or sizes, in the unit it is reported in.
type Dist struct {
	v      []float64
	sorted bool
}

func (d *Dist) Add(x float64)          { d.v = append(d.v, x); d.sorted = false }
func (d *Dist) AddDur(x time.Duration) { d.Add(float64(x) / float64(time.Millisecond)) }
func (d *Dist) Len() int               { return len(d.v) }
func (d *Dist) Merge(o *Dist)          { d.v = append(d.v, o.v...); d.sorted = false }
func (d *Dist) Percentile(q float64) (float64, bool) {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	return percentile(d.v, q)
}

// Mean returns the arithmetic mean (0 when empty).
func (d *Dist) Mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether the sample supports it: at least minBeyond samples lie beyond
// it. The value is always one of the measured samples.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n-rank >= minBeyond
}

// Supports reports whether at least minBeyond samples lie beyond the
// q-quantile.
func (d *Dist) Supports(q float64) bool {
	_, ok := percentile(d.v, q)
	return ok
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
