package experiments

import (
	"fluidfaas/internal/overload"
	"fluidfaas/internal/scheduler"
)

// This file is the overload extension study: how the three systems
// behave when offered load exceeds capacity. The paper's evaluation
// stops at workloads the testbed can serve; this sweep multiplies the
// medium workload's request rates past saturation and compares plain
// FluidFaaS and the baselines against FluidFaaS with SLO-aware
// admission enabled.
// The controller's promise is graceful degradation: goodput holds near
// its peak while the lost traffic fails fast at arrival instead of
// timing out after queueing.

// OverloadMultipliers are the offered-load multiples of the medium
// workload swept by the study; the top point is ~4x what the testbed
// serves at its knee.
var OverloadMultipliers = []float64{1, 2, 4}

// OverloadControlConfig is the controller configuration the study
// enables on FluidFaaS: SLO-aware admission.
func OverloadControlConfig() overload.Config {
	return overload.Config{Admission: true}
}

// OverloadPoint is one load multiplier's results: the three plain
// systems in Systems() order, then FluidFaaS with overload control
// (System name suffixed "+overload").
type OverloadPoint struct {
	Multiplier float64
	Systems    []SystemResult
}

// RunOverload sweeps the load multipliers at the medium workload.
// A nil mults uses OverloadMultipliers. Within one multiplier every
// system sees the identical trace.
func RunOverload(cfg Config, mults []float64) []OverloadPoint {
	cfg = cfg.withDefaults()
	if mults == nil {
		mults = OverloadMultipliers
	}
	var out []OverloadPoint
	for _, m := range mults {
		c := cfg
		c.RateScale = cfg.RateScale * m
		pt := OverloadPoint{Multiplier: m}
		for _, pol := range Systems() {
			pt.Systems = append(pt.Systems, RunSystem(pol, Medium, c))
		}
		oc := c
		oc.Overload = OverloadControlConfig()
		res := RunSystem(&scheduler.FluidFaaS{}, Medium, oc)
		res.System += "+overload"
		pt.Systems = append(pt.Systems, res)
		out = append(out, pt)
	}
	return out
}

// OverloadTable renders the sweep in the evaluation's row format.
func OverloadTable(points []OverloadPoint) Table {
	t := Table{
		Title: "Extension: goodput and degradation under offered overload (medium workload)",
		Header: []string{"xload", "system", "goodput", "slo hit", "fast-fail",
			"timeout-drop", "fairness"},
	}
	for _, pt := range points {
		for _, s := range pt.Systems {
			t.Rows = append(t.Rows, []string{
				f1(pt.Multiplier), s.System, f1(s.Goodput), pct(s.SLOHit),
				itoa(s.Rejected), itoa(s.TimeoutDrops), f3(s.Fairness),
			})
		}
	}
	return t
}
