package main

import "testing"

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n              int
		hasP90, hasP99 bool
		p50, p90, p99  float64
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 99, p50: 50},
		{n: 100, hasP90: true, p50: 50, p90: 90},
		{n: 101, hasP90: true, p50: 51, p90: 91},
		{n: 999, hasP90: true, p50: 500, p90: 900},
		{n: 1000, hasP90: true, hasP99: true, p50: 500, p90: 900, p99: 990},
	} {
		s := summarize(sample(tc.n))
		if s.N != tc.n {
			t.Errorf("n=%d: N = %d", tc.n, s.N)
		}
		if s.HasP90 != tc.hasP90 || s.HasP99 != tc.hasP99 {
			t.Errorf("n=%d: HasP90=%v HasP99=%v, want %v %v", tc.n, s.HasP90, s.HasP99, tc.hasP90, tc.hasP99)
		}
		if s.P50 != tc.p50 || s.P90 != tc.p90 || s.P99 != tc.p99 {
			t.Errorf("n=%d: p50/p90/p99 = %v/%v/%v, want %v/%v/%v", tc.n, s.P50, s.P90, s.P99, tc.p50, tc.p90, tc.p99)
		}
		if tc.hasP99 {
			beyond := 0
			for _, x := range sample(tc.n) {
				if x > s.P99 {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the reported p99", tc.n, beyond)
			}
		}
	}
}
