package main

import (
	"math"
	"sort"
)

// quantiles returns the n-1 cut points dividing data into n groups,
// computed exactly as Python's statistics.quantiles(data, n=n) does with
// its default "exclusive" method, so spreads printed here match what an
// outside checker computes from the same values.
func quantiles(data []float64, n int) []float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	out := make([]float64, n-1)
	switch len(d) {
	case 0:
		return out
	case 1:
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	ld := len(d)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

func median(data []float64) float64 { return quantiles(data, 2)[0] }

// p90 is the 90th percentile interpolated between its two nearest
// samples, as Python's "inclusive" method does, so it never lies
// outside the data however few samples there are. It is only
// meaningful with ten or more samples beyond it; callers report the
// sample count beside it.
func p90(data []float64) float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0
	case 1:
		return d[0]
	}
	const n, i = 10, 9
	m := len(d) - 1
	j := i * m / n
	delta := i*m - j*n
	return (d[j]*float64(n-delta) + d[j+1]*float64(delta)) / float64(n)
}

// dist is a metric's distribution over the runs of one set.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the share the bounds are compared with.
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(v []float64) dist {
	q := quantiles(v, 4)
	d := dist{Median: q[1], Q1: q[0], Q3: q[2], N: len(v)}
	if d.Median != 0 {
		d.Spread = (d.Q3 - d.Q1) / math.Abs(d.Median)
	}
	return d
}
