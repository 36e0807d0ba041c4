package main

import "sort"

// tailBeyond is how many samples must lie strictly above a reported tail
// value: the tail is the highest percentile the sample supports.
const tailBeyond = 10

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample of xs that has at least
// tailBeyond samples strictly beyond it, and the percentile it sits at
// (the share of samples at or below it, in percent). With too few
// samples to support any tail it returns the maximum and ok=false.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
