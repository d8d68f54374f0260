package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"fluidfaas/internal/scheduler"
)

// The checks below assert headline properties of fluidfaas-bench's
// JSON documents (-json-out) at -duration 45 and the default seed, the
// configuration they were first pinned at.

// cliConfig is fluidfaas-bench's configuration at -duration 45.
func cliConfig() Config {
	c := DefaultConfig()
	c.Duration = 45
	return c
}

// TestSwapDensityGain: the swap tier packs at least 1.5x the models per
// GPU that the no-swap platform holds at the same SLO attainment
// (BENCH_swap.json "swap.densityGain").
func TestSwapDensityGain(t *testing.T) {
	if r := RunSwap(cliConfig()); r.DensityGain < 1.5 {
		t.Errorf("density gain %.2f below 1.5x (on %.2f, off %.2f models/GPU)",
			r.DensityGain, r.DensityOn, r.DensityOff)
	}
}

// TestSwapStudyGolden pins the whole swap study: a sha256 over the JSON
// encoding of RunSwap's result. The density-gain check above only
// bounds one ratio; every SLO hit, swap count and pool occupancy of the
// sweep must also stay put when the time-sharing code is refactored.
func TestSwapStudyGolden(t *testing.T) {
	const want = "9fc405631438ad8eb497d275e75c23bebec183143ca34b87f1165f447c082998"
	b, err := json.Marshal(RunSwap(cliConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("swap study digest %s, want %s\n%s", got, want, b)
	}
}

// TestGrayHedgeBudget: with quarantine and hedging on, every point of
// the gray-failure sweep keeps hedging inside its budget
// (BENCH_gray.json "gray.sweep[].quarantineHedge.budgetOK").
func TestGrayHedgeBudget(t *testing.T) {
	for _, p := range RunGray(cliConfig()).Sweep {
		if h := p.QuarantineHedge; !h.BudgetOK {
			t.Errorf("rate %.2f sev %.1f: hedging blew its budget (%d hedges, %d completed)",
				p.Rate, p.Severity, h.Hedges, h.Completed)
		}
	}
}

// TestESGStrandsCapacity: on the medium workload ESG's whole-function
// slices strand capacity and FluidFaaS's pipelines strand none
// (BENCH_*.json "util.<system>.cluster.stranded"), and the first row
// of the end-to-end matrix, light/INFless, shows a fragmented free pool
// ("runs[0].fragmentation").
func TestESGStrandsCapacity(t *testing.T) {
	cfg := cliConfig()
	uc := RunUtilComparison(cfg)
	if s := uc.ESG.Cluster.Stranded; s <= 0 {
		t.Errorf("ESG stranded %v slice-seconds, want > 0", s)
	}
	if s := uc.FluidFaaS.Cluster.Stranded; s != 0 {
		t.Errorf("FluidFaaS stranded %v slice-seconds, want 0", s)
	}
	if Workloads[0] != Light || systemsOrder()[0] != "infless" {
		t.Fatalf("runs[0] is no longer light/infless")
	}
	r := RunSystem(&scheduler.INFlessMIG{}, Light, cfg)
	if f := r.Fragmentation.Mean(); f <= 0 {
		t.Errorf("light/infless: mean fragmentation %v, want > 0", f)
	}
}

// TestOverloadStudyGolden pins the overload study: a sha256 over the
// JSON encoding of RunOverload's points, with the engine's wall-clock
// telemetry zeroed. TestOverloadStudy only bounds goodput and
// rejections; every counter of every system at every load multiplier
// must also stay put when the shared-slice queue is refactored.
func TestOverloadStudyGolden(t *testing.T) {
	const want = "6ce071619d147ab555cd272cdd32ec21b4bf1abdff9dc07ddb744ca0ccd6771f"
	pts := RunOverload(cliConfig(), nil)
	for _, pt := range pts {
		for i := range pt.Systems {
			pt.Systems[i].Engine.WallSeconds, pt.Systems[i].Engine.EventsPerSec = 0, 0
		}
	}
	b, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("overload study digest %s, want %s", got, want)
	}
}
