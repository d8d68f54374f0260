package main

import (
	"fmt"

	"fluidfaas/internal/experiments"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// cell is one simulation: a policy replaying one workload level's trace
// on one cluster configuration.
type cell struct {
	system string
	level  experiments.Workload
	cfg    experiments.Config
}

func (c cell) name() string { return c.system + "/" + c.level.String() }

// workload is one benchmark input: cells run serially, one at a time.
type workload struct {
	name string
	// observed attaches all three recorders to every cell and runs the
	// export sequence of cmd/fluidfaas-sim after it.
	observed bool
	cells    func(seed int64) []cell
	// repSeconds is about what one rep takes, child start and set-up
	// included, on the host README.md describes, at its usual speed. It
	// sizes a run's input set.
	repSeconds float64
}

// The four workloads and why each exists are described in README.md.
// Each stresses a different layer: baseline placement (paper), the
// kernel heap, FluidFaaS planner and GC (scale), the observers and
// exporters (observed), and the failure paths (chaos).
var workloads = []workload{
	{name: "paper", cells: paperCells, repSeconds: 1.9},
	{name: "scale", cells: scaleCells, repSeconds: 3.6},
	{name: "observed", observed: true, cells: observedCells, repSeconds: 2.6},
	{name: "chaos", cells: chaosCells, repSeconds: 2.1},
}

// minInputs is the fewest inputs a run replays.
const minInputs = 3

// inputs is how many inputs a run of w with a budget of seconds
// replays: as many reps as the budget holds on the reference host. It
// depends on nothing measured, so every run with the same seed and
// budget replays the same inputs, however fast the host is that day.
func (w workload) inputs(seconds int) int {
	return max(minInputs, int(float64(seconds)/w.repSeconds))
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Simulated trace lengths in seconds. The paper matrix is shorter than
// the paper's 300 s so that a run holds a dozen inputs (see inputSeed);
// headlineDuration is the paper's own length, used only by the seed-42
// headline check.
const (
	paperDuration    = 60
	scaleDuration    = 1800
	observedDuration = 600
	chaosDuration    = 1200
	headlineDuration = 300
	// probeDuration caps the observer probe on workloads that run
	// without recorders (see probeCell).
	probeDuration = 60
)

// inputSeed is the seed of input i of a run with seed seed; input 0 is
// the seed itself. Rep i of a run replays input i. One trace's host cost
// moves by 20-40% (q1-q3) from one seed to the next, so a run reports
// means over a fixed set of inputs, which keeps its numbers steady
// across seeds (README.md, "Why a run replays several inputs").
func inputSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }

// baseConfig is the paper's testbed (2 nodes x 8 A100, 4g+2g+1g) at seed.
func baseConfig(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

func newPolicy(system string) scheduler.Policy {
	switch system {
	case "infless":
		return &scheduler.INFlessMIG{}
	case "esg":
		return &scheduler.ESG{}
	case "fluidfaas":
		return &scheduler.FluidFaaS{}
	}
	panic("bench: unknown system " + system)
}

var systems = []string{"infless", "esg", "fluidfaas"}

// matrixCells is the paper's {INFless+MIG, ESG, FluidFaaS} x {light,
// medium, heavy} matrix, level-major as experiments.RunEndToEnd builds it.
func matrixCells(seed int64, duration float64) []cell {
	var out []cell
	for _, lv := range experiments.Workloads {
		for _, sys := range systems {
			cfg := baseConfig(seed)
			cfg.Duration = duration
			out = append(out, cell{system: sys, level: lv, cfg: cfg})
		}
	}
	return out
}

func paperCells(seed int64) []cell { return matrixCells(seed, paperDuration) }

func scaleCells(seed int64) []cell {
	cfg := baseConfig(seed)
	cfg.Nodes = 16
	cfg.RateScale = 8
	cfg.Duration = scaleDuration
	return []cell{{system: "fluidfaas", level: experiments.Heavy, cfg: cfg}}
}

func observedCells(seed int64) []cell {
	cfg := baseConfig(seed)
	cfg.Nodes = 4
	cfg.RateScale = 2
	cfg.Duration = observedDuration
	return []cell{{system: "fluidfaas", level: experiments.Heavy, cfg: cfg}}
}

func chaosCells(seed int64) []cell {
	cfg := baseConfig(seed)
	cfg.Nodes = 16
	cfg.RateScale = 12
	cfg.Duration = chaosDuration
	cfg.Faults = &faults.Spec{
		SliceRate: 0.02, GPURate: 0.005, NodeRate: 0.0005, SliceMTTR: 30,
		DegradedRate: 0.05, DegradedMTTR: 60,
		DegradedMinSeverity: 2, DegradedMaxSeverity: 6,
	}
	cfg.Gray = platform.GrayOptions{Enabled: true, Hedge: true}
	cfg.Swap = platform.SwapOptions{Enabled: true}
	cfg.Overload = overload.Config{Admission: true, FairQueue: true, Brownout: true}
	return []cell{{system: "fluidfaas", level: experiments.Medium, cfg: cfg}}
}

// headlineCells are the FluidFaaS and ESG cells of the paper matrix at
// the paper's own 300 s, whose seed-42 numbers ROADMAP.md quotes.
func headlineCells(seed int64) []cell {
	var out []cell
	for _, c := range matrixCells(seed, headlineDuration) {
		if c.system != "infless" {
			out = append(out, c)
		}
	}
	return out
}

// probeCell is the configuration the observer probe measures: the
// observed workload's own cell, or elsewhere the workload's last
// FluidFaaS cell cut to probeDuration, so every workload reports what
// the recorders would cost on its cluster shape and load.
func probeCell(w workload, seed int64) cell {
	cells := w.cells(seed)
	c := cells[len(cells)-1]
	for _, x := range cells {
		if x.system == "fluidfaas" {
			c = x
		}
	}
	if !w.observed && c.cfg.Duration > probeDuration {
		c.cfg.Duration = probeDuration
	}
	return c
}
