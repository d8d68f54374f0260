package experiments

import (
	"fmt"

	"fluidfaas/internal/faults"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// This file is the gray-failure resilience study (ROADMAP: robustness):
// slices that silently slow down instead of failing stop. Fail-stop
// faults the platform already survives — the watchdog sees the death
// and retries. A degraded slice is worse: it keeps accepting work and
// keeps completing it late, so every request routed there misses its
// SLO while the placement logic still counts the slice as healthy
// capacity. The study sweeps degradation rate × severity and compares
// three mitigation levels on the same arrival sequence:
//
//	none        — degradations strike, the platform routes blindly
//	quarantine  — the health scorer detects and quarantines slow slices
//	quar+hedge  — additionally, deadline-at-risk requests on suspect
//	              slices get a hedged duplicate on clean hardware

// grayRates and graySeverities are the sweep grid. Rates are
// cluster-wide SliceDegraded events per second; with ~48 slices on the
// default testbed and 60 s episodes, 0.1/s keeps ~12% of the slices
// degraded at any moment and 0.25/s ~30% — the regime where routing
// blindly onto sick hardware visibly costs attainment. Severities are
// fixed per point by pinning the min/max draw together, so each point
// isolates one slowdown factor.
var (
	grayRates      = []float64{0.1, 0.25}
	graySeverities = []float64{2.5, 5}
)

// grayMTTR keeps episodes long relative to the health scorer's
// detection time (a few observations) but short enough that several
// strike-recover cycles fit a run.
const grayMTTR = 60.0

// GrayRun is one (rate, severity, mitigation) cell.
type GrayRun struct {
	// SLOHit and Availability over all requests of the run.
	SLOHit       float64 `json:"sloHit"`
	Availability float64 `json:"availability"`
	Completed    int     `json:"completed"`
	Failed       int     `json:"failed"`
	// Degradations injected and the mitigation activity they drew.
	Degradations int `json:"degradations"`
	Suspects     int `json:"suspects"`
	Quarantines  int `json:"quarantines"`
	Hedges       int `json:"hedges"`
	HedgeWins    int `json:"hedgeWins"`
	// WastedSec is GPU time spent by hedge copies that lost their race;
	// WastedRatio is that against the run's total GPU busy time.
	WastedSec   float64 `json:"wastedSec"`
	WastedRatio float64 `json:"wastedRatio"`
	// HedgeRate is hedges per completed request; BudgetOK is whether it
	// respected the configured per-function budget (with one launch of
	// slack per function, since the budget admits a first hedge early).
	HedgeRate float64 `json:"hedgeRate"`
	BudgetOK  bool    `json:"budgetOK"`
}

// GrayPoint is one sweep point: the three mitigation levels on the same
// degradation schedule and arrival sequence.
type GrayPoint struct {
	Rate            float64 `json:"rate"`
	Severity        float64 `json:"severity"`
	NoMitigation    GrayRun `json:"noMitigation"`
	QuarantineOnly  GrayRun `json:"quarantineOnly"`
	QuarantineHedge GrayRun `json:"quarantineHedge"`
}

// GrayResult is the study outcome.
type GrayResult struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HedgeBudget float64 `json:"hedgeBudget"`

	Sweep []GrayPoint `json:"sweep"`
}

// runGrayCell executes one mitigation level of one sweep point on the
// Light workload (SLOs tight enough that a 2.5x slowdown misses them,
// capacity slack enough that clean hardware exists to hedge onto).
func runGrayCell(cfg Config, rate, severity float64, g platform.GrayOptions) GrayRun {
	c := cfg
	c.Faults = &faults.Spec{
		DegradedRate:        rate,
		DegradedMTTR:        grayMTTR,
		DegradedMinSeverity: severity,
		DegradedMaxSeverity: severity,
	}
	c.Gray = g
	var out GrayRun
	var gpuBusy float64
	c.OnPlatform = func(p *platform.Platform) {
		out.Suspects = p.Suspects()
		out.Quarantines = p.Quarantines()
		out.Hedges = p.Hedges()
		out.HedgeWins = p.HedgeWins()
		out.WastedSec = p.HedgeWastedSeconds()
	}
	res := RunSystem(&scheduler.FluidFaaS{}, Light, c)
	gpuBusy = res.GPUTime
	out.SLOHit = res.SLOHit
	out.Availability = res.Availability
	out.Completed = res.Completed
	out.Failed = res.FailedCount
	out.Degradations = res.Faults
	if gpuBusy > 0 {
		out.WastedRatio = out.WastedSec / gpuBusy
	}
	if res.Completed > 0 {
		out.HedgeRate = float64(out.Hedges) / float64(res.Completed)
	}
	// One launch of slack per registered function: the budget admits a
	// function's first hedge before it has served ten requests.
	funcs := len(SpecsFor(Light, 1.5))
	out.BudgetOK = float64(out.Hedges) <= platform.HedgeBudget*float64(res.Completed)+float64(funcs)
	return out
}

// RunGray runs the gray-failure resilience study.
func RunGray(cfg Config) GrayResult {
	cfg = cfg.withDefaults()
	res := GrayResult{
		Workload:    Light.String(),
		Seed:        cfg.Seed,
		HedgeBudget: platform.HedgeBudget,
	}

	// The sweep: every (rate, severity) under the three mitigation
	// levels. Same cfg.Seed throughout, so within a point all three
	// levels face the identical degradation schedule and arrivals.
	for _, rate := range grayRates {
		for _, sev := range graySeverities {
			pt := GrayPoint{Rate: rate, Severity: sev}
			pt.NoMitigation = runGrayCell(cfg, rate, sev, platform.GrayOptions{})
			pt.QuarantineOnly = runGrayCell(cfg, rate, sev, platform.GrayOptions{
				Enabled: true,
			})
			pt.QuarantineHedge = runGrayCell(cfg, rate, sev, platform.GrayOptions{
				Enabled: true, Hedge: true,
			})
			res.Sweep = append(res.Sweep, pt)
		}
	}
	return res
}

// GrayTable renders the study.
func GrayTable(r GrayResult) Table {
	t := Table{
		Title: fmt.Sprintf("Gray-failure resilience: SLO attainment under degraded slices (%s workload, hedge budget %.0f%%)",
			r.Workload, 100*r.HedgeBudget),
		Header: []string{"rate", "sev", "SLO none", "SLO quar", "SLO q+h", "quar", "hedges(won)", "wasted", "budget"},
	}
	for _, p := range r.Sweep {
		budget := "ok"
		if !p.QuarantineHedge.BudgetOK {
			budget = "OVER"
		}
		t.Rows = append(t.Rows, []string{
			f3(p.Rate), f1(p.Severity),
			pct(p.NoMitigation.SLOHit), pct(p.QuarantineOnly.SLOHit), pct(p.QuarantineHedge.SLOHit),
			itoa(p.QuarantineHedge.Quarantines),
			itoa(p.QuarantineHedge.Hedges) + "(" + itoa(p.QuarantineHedge.HedgeWins) + ")",
			pct(p.QuarantineHedge.WastedRatio),
			budget,
		})
	}
	return t
}
