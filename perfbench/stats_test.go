package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pct, ok := tail(seq(tc.n))
		if !ok || v != tc.want || pct != tc.wantPct {
			t.Errorf("tail(1..%d) = %v at p%v (ok %v), want %v at p%v", tc.n, v, pct, ok, tc.want, tc.wantPct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailWithTooFewSamples(t *testing.T) {
	v, pct, ok := tail(seq(10))
	if ok || v != 10 || pct != 100 {
		t.Errorf("tail(1..10) = %v at p%v ok=%v, want the maximum, p100, not ok", v, pct, ok)
	}
	if _, _, ok := tail(nil); ok {
		t.Error("tail(nil) reported ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// The RSS windows see memory allocated after they start.
func TestRSSWindowsSeeAllocation(t *testing.T) {
	w := startRSSWindows()
	b := make([]byte, 64<<20)
	for i := range b {
		b[i] = 1
	}
	if got := w.median(); got < 64 {
		t.Errorf("median window peak %.1f MiB after touching 64 MiB", got)
	}
	_ = b[len(b)-1]
}
