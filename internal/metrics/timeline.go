package metrics

// Timeline is a sampled time series (e.g. GPU utilisation over time,
// Fig. 3a / Fig. 16).
type Timeline struct {
	Times  []float64
	Values []float64
}

// Add appends a sample. Times must be non-decreasing.
func (tl *Timeline) Add(t, v float64) {
	if n := len(tl.Times); n > 0 && t < tl.Times[n-1] {
		panic("metrics: timeline samples out of order")
	}
	tl.Times = append(tl.Times, t)
	tl.Values = append(tl.Values, v)
}

// Len returns the sample count.
func (tl *Timeline) Len() int { return len(tl.Times) }

// Max returns the largest sample value (0 if empty).
func (tl *Timeline) Max() float64 {
	max := 0.0
	for _, v := range tl.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the time-weighted mean value between the first and last
// samples (0 if fewer than two samples).
func (tl *Timeline) Mean() float64 {
	if len(tl.Times) < 2 {
		return 0
	}
	area := 0.0
	for i := 1; i < len(tl.Times); i++ {
		area += tl.Values[i-1] * (tl.Times[i] - tl.Times[i-1])
	}
	span := tl.Times[len(tl.Times)-1] - tl.Times[0]
	if span <= 0 {
		return 0
	}
	return area / span
}

// FractionBelow returns the fraction of (time-weighted) samples whose
// value is strictly below the threshold — e.g. "MIGs operate at less
// than 35% for 90% of the time" (Fig. 5).
func (tl *Timeline) FractionBelow(threshold float64) float64 {
	if len(tl.Times) < 2 {
		return 0
	}
	below := 0.0
	for i := 1; i < len(tl.Times); i++ {
		if tl.Values[i-1] < threshold {
			below += tl.Times[i] - tl.Times[i-1]
		}
	}
	span := tl.Times[len(tl.Times)-1] - tl.Times[0]
	if span <= 0 {
		return 0
	}
	return below / span
}
