package experiments

import (
	"sort"
	"sync"
	"testing"

	"fluidfaas/internal/metrics"
)

// The headline shapes across seeds. TestEndToEndShape pins seed 42; the
// sweep below reruns DefaultConfig with only the seed changed, so a
// claim that holds at seed 42 alone cannot pass as the paper's shape.
// Claims that hold on every seed are asserted per seed; the others are
// asserted on the median, with the spread logged.

const sweepSeeds = 20 // seeds 1..20

// seedShape is the handful of scalars one seed's matrix contributes.
type seedShape struct {
	seed int64

	heavyTputRatio  float64 // heavy throughput, FluidFaaS ÷ ESG
	heavySLODiff    float64 // heavy SLO hit, FluidFaaS − ESG
	lightSLODiff    float64 // light SLO hit, FluidFaaS − ESG
	heavyTputESGvI  float64 // heavy throughput, ESG − INFless
	medSLORatio     float64 // medium SLO hit, FluidFaaS ÷ ESG
	medQueueRatio   float64 // medium mean queueing, FluidFaaS ÷ ESG
	heavyQueueRatio float64 // heavy mean queueing, FluidFaaS ÷ ESG
}

var sweep struct {
	once   sync.Once
	shapes []seedShape
}

// seedSweep runs the end-to-end matrix for seeds 1..sweepSeeds once per
// test binary and keeps only the scalars the assertions read.
func seedSweep() []seedShape {
	sweep.once.Do(func() {
		for seed := int64(1); seed <= sweepSeeds; seed++ {
			cfg := DefaultConfig()
			cfg.Seed = seed
			r := RunEndToEnd(cfg).Results
			light, med, heavy := r[Light], r[Medium], r[Heavy]
			sweep.shapes = append(sweep.shapes, seedShape{
				seed:            seed,
				heavyTputRatio:  heavy["fluidfaas"].Throughput / heavy["esg"].Throughput,
				heavySLODiff:    heavy["fluidfaas"].SLOHit - heavy["esg"].SLOHit,
				lightSLODiff:    light["fluidfaas"].SLOHit - light["esg"].SLOHit,
				heavyTputESGvI:  heavy["esg"].Throughput - heavy["infless"].Throughput,
				medSLORatio:     med["fluidfaas"].SLOHit / med["esg"].SLOHit,
				medQueueRatio:   med["fluidfaas"].Breakdown.Queue / med["esg"].Breakdown.Queue,
				heavyQueueRatio: heavy["fluidfaas"].Breakdown.Queue / heavy["esg"].Breakdown.Queue,
			})
		}
	})
	return sweep.shapes
}

// spread logs one claim's distribution across the sweep and returns
// its median.
func spread(t *testing.T, name string, shapes []seedShape, f func(seedShape) float64) float64 {
	vs := make([]float64, len(shapes))
	for i, s := range shapes {
		vs[i] = f(s)
	}
	sort.Float64s(vs)
	median := metrics.Percentile(vs, 50)
	t.Logf("%s over seeds 1-%d: min %.3f p10 %.3f median %.3f p90 %.3f max %.3f", name, len(vs),
		vs[0], metrics.Percentile(vs, 10), median, metrics.Percentile(vs, 90), vs[len(vs)-1])
	return median
}

// TestSeedSweepEverySeed: the heavy-workload gains, the light-workload
// parity and the ESG/INFless similarity hold on every seed.
func TestSeedSweepEverySeed(t *testing.T) {
	shapes := seedSweep()
	spread(t, "heavy throughput fluidfaas/esg", shapes, func(s seedShape) float64 { return s.heavyTputRatio })
	spread(t, "heavy SLO hit fluidfaas-esg", shapes, func(s seedShape) float64 { return s.heavySLODiff })
	spread(t, "light SLO hit fluidfaas-esg", shapes, func(s seedShape) float64 { return s.lightSLODiff })
	spread(t, "heavy throughput esg-infless", shapes, func(s seedShape) float64 { return s.heavyTputESGvI })
	for _, s := range shapes {
		if s.heavyTputRatio < 1.25 {
			t.Errorf("seed %d: heavy throughput fluidfaas/esg = %.2f, want >= 1.25", s.seed, s.heavyTputRatio)
		}
		if s.heavySLODiff <= 0 {
			t.Errorf("seed %d: heavy SLO hit fluidfaas-esg = %+.3f, want > 0", s.seed, s.heavySLODiff)
		}
		if s.lightSLODiff < -0.10 {
			t.Errorf("seed %d: light SLO hit fluidfaas-esg = %+.3f, want >= -0.10", s.seed, s.lightSLODiff)
		}
		if s.heavyTputESGvI < -3 || s.heavyTputESGvI > 3 {
			t.Errorf("seed %d: heavy throughput esg-infless = %+.1f req/s, want within 3", s.seed, s.heavyTputESGvI)
		}
	}
}

// TestSeedSweepMedian: the medium SLO gain and Fig. 14's queueing
// saving hold on the median seed but not on every one, so only the
// median is asserted.
func TestSeedSweepMedian(t *testing.T) {
	shapes := seedSweep()
	if m := spread(t, "medium SLO hit fluidfaas/esg", shapes, func(s seedShape) float64 { return s.medSLORatio }); m < 1.15 {
		t.Errorf("medium SLO hit fluidfaas/esg: median %.2f, want >= 1.15", m)
	}
	if m := spread(t, "medium queueing fluidfaas/esg", shapes, func(s seedShape) float64 { return s.medQueueRatio }); m >= 1 {
		t.Errorf("medium queueing fluidfaas/esg: median %.2f, want < 1", m)
	}
	if m := spread(t, "heavy queueing fluidfaas/esg", shapes, func(s seedShape) float64 { return s.heavyQueueRatio }); m >= 1 {
		t.Errorf("heavy queueing fluidfaas/esg: median %.2f, want < 1", m)
	}
}
