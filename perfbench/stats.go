package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail figure resting on fewer is one slow sample, not a
// percentile.
const minBeyond = 10

// tailCandidates are the tail percentiles the benchmark may report,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, and false when none does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if supports(n, p) {
			return p, true
		}
	}
	return 0, false
}

// supports reports whether n samples leave at least minBeyond above the
// p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minBeyond-1e-9
}

// percentile returns the p-th percentile of xs by the nearest-rank rule
// (0 for an empty slice). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count; 0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// dist summarizes one timing distribution the way every timing is
// reported: the median, the highest percentile with minBeyond samples
// beyond it, and the sample count.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), P50: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		d.TailP, d.Tail = p, percentile(xs, p)
	}
	return d
}

// tail returns the p-th percentile of xs when the sample count supports
// it (minBeyond samples beyond), and 0 with false otherwise.
func tail(xs []float64, p float64) (float64, bool) {
	if !supports(len(xs), p) {
		return 0, false
	}
	return percentile(xs, p), true
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
