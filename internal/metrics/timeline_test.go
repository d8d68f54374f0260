package metrics

import (
	"math"
	"testing"
)

// TestTimelineMeanEdgeCases: table-driven edge cases of the
// time-weighted mean.
func TestTimelineMeanEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		times  []float64
		values []float64
		want   float64
	}{
		{"empty", nil, nil, 0},
		{"single sample", []float64{5}, []float64{0.9}, 0},
		{"zero span", []float64{5, 5}, []float64{0.3, 0.7}, 0},
		{"two samples", []float64{0, 10}, []float64{0.4, 0.8}, 0.4},
		{"uneven spacing", []float64{0, 1, 10}, []float64{1, 0, 0.5}, 0.1},
	}
	for _, c := range cases {
		var tl Timeline
		for i := range c.times {
			tl.Add(c.times[i], c.values[i])
		}
		if got := tl.Mean(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Mean = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTimelineFractionBelowEdgeCases: table-driven edge cases,
// including thresholds exactly at a sample value (strictly-below
// semantics) and degenerate spans.
func TestTimelineFractionBelowEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		times     []float64
		values    []float64
		threshold float64
		want      float64
	}{
		{"empty", nil, nil, 0.5, 0},
		{"single sample", []float64{3}, []float64{0.2}, 0.5, 0},
		{"zero span", []float64{3, 3}, []float64{0.2, 0.9}, 0.5, 0},
		// Value exactly at the threshold is NOT strictly below.
		{"threshold at boundary", []float64{0, 10}, []float64{0.5, 1}, 0.5, 0},
		{"just under boundary", []float64{0, 10}, []float64{0.499, 1}, 0.5, 1},
		{"half below", []float64{0, 5, 10}, []float64{0.1, 0.9, 0.9}, 0.5, 0.5},
		{"all below", []float64{0, 4, 10}, []float64{0.1, 0.2, 0.3}, 0.35, 1},
		// The last sample's value never contributes (no interval after it).
		{"last sample ignored", []float64{0, 10}, []float64{1, 0}, 0.5, 0},
	}
	for _, c := range cases {
		var tl Timeline
		for i := range c.times {
			tl.Add(c.times[i], c.values[i])
		}
		if got := tl.FractionBelow(c.threshold); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: FractionBelow(%v) = %v, want %v", c.name, c.threshold, got, c.want)
		}
	}
}
