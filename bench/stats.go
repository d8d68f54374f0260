package main

import "sort"

// metricStat summarises one metric over a run's reps, or over runs.
type metricStat struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Mean   float64   `json:"mean"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) metricStat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return metricStat{Unit: unit, N: len(values), Mean: ratio(sum, float64(len(s))),
		Median: med, Q1: q1, Q3: q3, Values: values}
}

// spread is the q1-q3 distance as a share of the median.
func (m metricStat) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// quartiles returns the three cut points of sorted data as Python's
// statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method), so spreads match those computed in Python. With
// fewer than two points every cut point is the single value.
func quartiles(s []float64) (q1, med, q3 float64) {
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
