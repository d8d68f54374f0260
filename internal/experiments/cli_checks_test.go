package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/scheduler"
)

// The checks below assert headline properties of fluidfaas-bench's
// extension studies at -duration 45 and the default seed, the
// configuration they were first pinned at.

// cliConfig is fluidfaas-bench's configuration at -duration 45.
func cliConfig() Config {
	c := DefaultConfig()
	c.Duration = 45
	return c
}

// TestSwapDensityGain: the swap tier packs at least 1.5x the models per
// GPU that the no-swap platform holds at the same SLO attainment (the
// density gain -exp swap reports).
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

// TestStudyGoldens pins the studies that no other golden covers: those
// that build their own cluster and platform outside RunSystem, and the
// span-analytics study. Each is a sha256 over the JSON encoding of the
// result; for analytics, of the tables fluidfaas-bench -exp analytics
// prints.
func TestStudyGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) any
		want string
	}{
		{"fig3", func(c Config) any { return RunMotivation(c) }, "38246f547f68ae545bfa3946ddf2cf12f192075510b1520efd78f8e951af6811"},
		{"fig5", func(c Config) any { return RunKeepAlive(c) }, "6ef17b384f35aceeef76adfdd830aa8e20d2f550988fb63327d9436c1e614840"},
		{"chaining", func(c Config) any { return RunChaining(c) }, "55d42725e33443daee695d4395e85873ad087ddd4d8597f0df623ab2171a3270"},
		{"analytics", func(c Config) any { return analyticsTables(c) }, "40bcc52cc9cb49ad02ac35b5dcf593c6103e74dbf6a4a15865a73f15361d1d9d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.run(cliConfig()))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
				t.Errorf("%s digest %s, want %s\n%s", tc.name, got, tc.want, b)
			}
		})
	}
}

// analyticsTables renders the tables fluidfaas-bench -exp analytics
// prints, in its order: blame, stragglers, burn and drift of one run,
// then the drift table of a MaxBatch=4 run.
func analyticsTables(c Config) string {
	rp := RunAnalytics(c).Report
	var b strings.Builder
	for _, t := range []Table{AnalyticsBlameTable(rp), AnalyticsStragglerTable(rp),
		AnalyticsBurnTable(rp), AnalyticsDriftTable(rp)} {
		fmt.Fprintln(&b, t)
	}
	c.MaxBatch = 4
	fmt.Fprintln(&b, AnalyticsDriftTable(RunAnalytics(c).Report))
	return b.String()
}

// TestGrayHedgeBudget: with quarantine and hedging on, every point of
// the gray-failure sweep keeps hedging inside its budget.
func TestGrayHedgeBudget(t *testing.T) {
	for _, p := range RunGray(cliConfig()).Sweep {
		if h := p.QuarantineHedge; !h.BudgetOK {
			t.Errorf("rate %.2f sev %.1f: hedging blew its budget (%d hedges, %d completed)",
				p.Rate, p.Severity, h.Hedges, h.Completed)
		}
	}
}

// TestESGStrandsCapacity: on the medium workload ESG's whole-function
// slices strand capacity and FluidFaaS's pipelines strand none, by the
// utilization ledger's cluster roll-up, and light/INFless, the first
// cell of the end-to-end matrix, shows a fragmented free pool.
func TestESGStrandsCapacity(t *testing.T) {
	cfg := cliConfig()
	stranded := func(pol scheduler.Policy) float64 {
		c := cfg
		c.Util = util.NewLedger()
		RunSystem(pol, Medium, c)
		if err := c.Util.Check(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		return c.Util.Report().Cluster.Stranded
	}
	if s := stranded(&scheduler.ESG{}); s <= 0 {
		t.Errorf("ESG stranded %v slice-seconds, want > 0", s)
	}
	if s := stranded(&scheduler.FluidFaaS{}); s != 0 {
		t.Errorf("FluidFaaS stranded %v slice-seconds, want 0", s)
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
	const want = "e990de41712782baa14adb1f9493d9b982a32dbdf1adb7a24a8066650cc881b3"
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
