package experiments

import (
	"math"
	"testing"
)

// TestCheckDuration: the CLIs' -duration check accepts any finite
// positive length and rejects what Config would silently replace with
// its default (zero, negatives) or cannot run (NaN, infinities).
func TestCheckDuration(t *testing.T) {
	for _, d := range []float64{0.5, 1, 300, 86400} {
		if err := CheckDuration(d); err != nil {
			t.Errorf("CheckDuration(%v) = %v, want nil", d, err)
		}
	}
	for _, d := range []float64{0, math.Copysign(0, -1), -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckDuration(d); err == nil {
			t.Errorf("CheckDuration(%v) accepted a bad duration", d)
		}
	}
}
