// Package faults generates deterministic, seeded fault schedules for
// the simulated cluster: MIG-slice ECC faults, whole-GPU failures, and
// node crash/recover events. The platform injects these on its event
// engine so every run is bit-for-bit reproducible — the same seed and
// spec always yield the same faults, and a zero-rate spec yields no
// events at all (leaving fault-free runs untouched).
//
// Schedules come from two sources: Poisson processes parameterised by
// per-class rates (Spec rates + Build), or an explicit Script for
// targeted studies and regression tests. Each fault carries its own
// repair time drawn from the class's mean time to repair.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fluidfaas/internal/sim"
)

// Kind classifies a fault event by the hardware layer it takes down.
type Kind int

// The three fault classes, smallest blast radius first.
const (
	// SliceFault takes down one MIG slice (uncorrectable ECC error in
	// the slice's memory partition): the strong-isolation case — the
	// GPU's other slices keep serving.
	SliceFault Kind = iota
	// GPUFault takes down a whole GPU and every slice on it (driver
	// wedge, XID error, thermal shutdown).
	GPUFault
	// NodeCrash takes down an invoker node: all its GPUs, plus the host
	// memory holding warm model copies.
	NodeCrash
	// SliceDegraded is a gray failure: the slice keeps serving, but a
	// severity multiplier (thermal throttling, ECC retirement, PCIe
	// link degradation) stretches its exec, load and transfer times
	// until the repair. No health check trips; only observed-vs-declared
	// timing reveals it.
	SliceDegraded
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case SliceFault:
		return "slice-fault"
	case GPUFault:
		return "gpu-fault"
	case NodeCrash:
		return "node-crash"
	case SliceDegraded:
		return "slice-degraded"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault and its repair.
type Event struct {
	// Time is when the fault strikes (virtual seconds).
	Time float64
	// Kind selects the hardware layer.
	Kind Kind
	// Node is the victim node index. Always set.
	Node int
	// GPU is the victim GPU index within the node (SliceFault and
	// GPUFault; -1 for NodeCrash).
	GPU int
	// Slice is the victim slice index within the GPU (SliceFault only;
	// -1 otherwise).
	Slice int
	// Recovery is the absolute repair time. Recovery past the run
	// horizon means the hardware stays down for the rest of the run.
	Recovery float64
	// Severity is the slowdown multiplier of a SliceDegraded event
	// (>= 1: exec, load and transfer times on the slice stretch by this
	// factor until Recovery). Zero for fail-stop kinds.
	Severity float64
}

// String renders the event for logs.
func (e Event) String() string {
	target := fmt.Sprintf("node%d", e.Node)
	switch e.Kind {
	case GPUFault:
		target = fmt.Sprintf("node%d/gpu%d", e.Node, e.GPU)
	case SliceFault, SliceDegraded:
		target = fmt.Sprintf("node%d/gpu%d/slice%d", e.Node, e.GPU, e.Slice)
	}
	if e.Kind == SliceDegraded {
		return fmt.Sprintf("%8.2fs %-14s %-22s %.1fx repaired %.2fs",
			e.Time, e.Kind, target, e.Severity, e.Recovery)
	}
	return fmt.Sprintf("%8.2fs %-11s %-22s repaired %.2fs", e.Time, e.Kind, target, e.Recovery)
}

// Spec parameterises fault generation. The zero value disables faults
// entirely (Build returns an empty schedule).
type Spec struct {
	// SliceRate, GPURate and NodeRate are cluster-wide fault rates in
	// faults per second for each class. Zero disables the class.
	SliceRate float64
	GPURate   float64
	NodeRate  float64

	// SliceMTTR, GPUMTTR and NodeMTTR are the mean times to repair
	// (seconds) for each class; repair times are exponential draws.
	// Defaults: 30 s (slice reset), 90 s (GPU reset), 180 s (node
	// reboot).
	SliceMTTR float64
	GPUMTTR   float64
	NodeMTTR  float64

	// DegradedRate is the cluster-wide gray-failure rate (SliceDegraded
	// events per second). Zero disables the class.
	DegradedRate float64
	// DegradedMTTR is the mean duration of a degradation episode
	// (default 60 s — thermal throttling clears on its own; ECC
	// retirement waits for a drain).
	DegradedMTTR float64
	// DegradedMinSeverity and DegradedMaxSeverity bound the uniform
	// severity draw (defaults 1.5x and 8x, the paper-reported range of
	// silent slowdowns).
	DegradedMinSeverity float64
	DegradedMaxSeverity float64

	// Script, when non-empty, is used verbatim (sorted by time) instead
	// of generating from the rates — for targeted studies and tests.
	Script []Event
}

func (s Spec) withDefaults() Spec {
	if s.SliceMTTR <= 0 {
		s.SliceMTTR = 30
	}
	if s.GPUMTTR <= 0 {
		s.GPUMTTR = 90
	}
	if s.NodeMTTR <= 0 {
		s.NodeMTTR = 180
	}
	if s.DegradedMTTR <= 0 {
		s.DegradedMTTR = 60
	}
	if s.DegradedMinSeverity <= 1 {
		s.DegradedMinSeverity = 1.5
	}
	if s.DegradedMaxSeverity < s.DegradedMinSeverity {
		s.DegradedMaxSeverity = 8
	}
	return s
}

// Enabled reports whether the spec can produce any events.
func (s Spec) Enabled() bool {
	return len(s.Script) > 0 || s.SliceRate > 0 || s.GPURate > 0 ||
		s.NodeRate > 0 || s.DegradedRate > 0
}

// NodeTopo describes one node's GPUs for victim selection: the slice
// count of each GPU.
type NodeTopo struct {
	Slices []int
}

// Topology describes the cluster shape faults are drawn over.
type Topology struct {
	Nodes []NodeTopo
}

// gpuRef is a flattened (node, gpu) pair for uniform victim draws.
type gpuRef struct {
	node, gpu, slices int
}

func (t Topology) gpus() []gpuRef {
	var out []gpuRef
	for ni, n := range t.Nodes {
		for gi, sc := range n.Slices {
			out = append(out, gpuRef{node: ni, gpu: gi, slices: sc})
		}
	}
	return out
}

// Schedule is a time-ordered fault plan.
type Schedule struct {
	Events []Event
}

// Len returns the number of scheduled faults.
func (s Schedule) Len() int { return len(s.Events) }

// Build derives the fault schedule for one run. Each fault class uses
// an independent RNG stream named after the class, so enabling one
// class never perturbs the draws of another. Faults are generated as
// Poisson processes over [0, horizon); events are returned sorted by
// time (ties broken by class, then generation order).
func Build(spec Spec, seed int64, horizon float64, topo Topology) Schedule {
	spec = spec.withDefaults()
	if len(spec.Script) > 0 {
		if err := ValidateScript(spec.Script, topo); err != nil {
			panic("faults: " + err.Error())
		}
		evs := append([]Event(nil), spec.Script...)
		slices.SortStableFunc(evs, byTime)
		return Schedule{Events: evs}
	}
	if horizon <= 0 || len(topo.Nodes) == 0 {
		return Schedule{}
	}
	var evs []Event

	if spec.SliceRate > 0 {
		rng := sim.NewRNG(seed, "faults/slice")
		gpus := topo.gpus()
		for t := rng.Exp(1 / spec.SliceRate); t < horizon; t += rng.Exp(1 / spec.SliceRate) {
			g := gpus[rng.Intn(len(gpus))]
			if g.slices == 0 {
				continue
			}
			evs = append(evs, Event{
				Time: t, Kind: SliceFault,
				Node: g.node, GPU: g.gpu, Slice: rng.Intn(g.slices),
				Recovery: t + rng.Exp(spec.SliceMTTR),
			})
		}
	}
	if spec.GPURate > 0 {
		rng := sim.NewRNG(seed, "faults/gpu")
		gpus := topo.gpus()
		for t := rng.Exp(1 / spec.GPURate); t < horizon; t += rng.Exp(1 / spec.GPURate) {
			g := gpus[rng.Intn(len(gpus))]
			evs = append(evs, Event{
				Time: t, Kind: GPUFault,
				Node: g.node, GPU: g.gpu, Slice: -1,
				Recovery: t + rng.Exp(spec.GPUMTTR),
			})
		}
	}
	if spec.NodeRate > 0 {
		rng := sim.NewRNG(seed, "faults/node")
		for t := rng.Exp(1 / spec.NodeRate); t < horizon; t += rng.Exp(1 / spec.NodeRate) {
			evs = append(evs, Event{
				Time: t, Kind: NodeCrash,
				Node: rng.Intn(len(topo.Nodes)), GPU: -1, Slice: -1,
				Recovery: t + rng.Exp(spec.NodeMTTR),
			})
		}
	}
	if spec.DegradedRate > 0 {
		rng := sim.NewRNG(seed, "faults/degraded")
		gpus := topo.gpus()
		for t := rng.Exp(1 / spec.DegradedRate); t < horizon; t += rng.Exp(1 / spec.DegradedRate) {
			g := gpus[rng.Intn(len(gpus))]
			if g.slices == 0 {
				continue
			}
			sev := spec.DegradedMinSeverity +
				rng.Float64()*(spec.DegradedMaxSeverity-spec.DegradedMinSeverity)
			evs = append(evs, Event{
				Time: t, Kind: SliceDegraded,
				Node: g.node, GPU: g.gpu, Slice: rng.Intn(g.slices),
				Recovery: t + rng.Exp(spec.DegradedMTTR),
				Severity: sev,
			})
		}
	}
	slices.SortStableFunc(evs, byTime)
	return Schedule{Events: evs}
}

// byTime orders events by time; stable sorts keep ties in input order.
func byTime(a, b Event) int { return cmp.Compare(a.Time, b.Time) }

// ValidateScript checks an explicit Script against the cluster shape:
// every event must target an in-range victim for its kind, strike at a
// finite time >= 0 and be repaired at a finite later time, SliceDegraded
// events must carry a finite severity >= 1, and two events of the same kind on the same victim must not have
// overlapping [Time, Recovery) windows — an overlapping pair would make
// the first repair silently revive hardware the second fault still
// holds down. Build panics on an invalid script; callers wanting an
// error instead validate up front.
func ValidateScript(script []Event, topo Topology) error {
	for i, e := range script {
		if e.Node < 0 || e.Node >= len(topo.Nodes) {
			return fmt.Errorf("script[%d] %s: node %d out of range [0,%d)",
				i, e.Kind, e.Node, len(topo.Nodes))
		}
		gpus := topo.Nodes[e.Node].Slices
		switch e.Kind {
		case SliceFault, SliceDegraded:
			if e.GPU < 0 || e.GPU >= len(gpus) {
				return fmt.Errorf("script[%d] %s: gpu %d out of range [0,%d) on node %d",
					i, e.Kind, e.GPU, len(gpus), e.Node)
			}
			if e.Slice < 0 || e.Slice >= gpus[e.GPU] {
				return fmt.Errorf("script[%d] %s: slice %d out of range [0,%d) on node %d gpu %d",
					i, e.Kind, e.Slice, gpus[e.GPU], e.Node, e.GPU)
			}
			if e.Kind == SliceDegraded && !(finite(e.Severity) && e.Severity >= 1) {
				return fmt.Errorf("script[%d] slice-degraded: severity %v not finite and >= 1", i, e.Severity)
			}
		case GPUFault:
			if e.GPU < 0 || e.GPU >= len(gpus) {
				return fmt.Errorf("script[%d] %s: gpu %d out of range [0,%d) on node %d",
					i, e.Kind, e.GPU, len(gpus), e.Node)
			}
		case NodeCrash:
			// Node already checked.
		default:
			return fmt.Errorf("script[%d]: unknown fault kind %d", i, int(e.Kind))
		}
		if !(finite(e.Time) && e.Time >= 0) {
			return fmt.Errorf("script[%d] %s: fault time %v not finite and >= 0", i, e.Kind, e.Time)
		}
		if !(finite(e.Recovery) && e.Recovery > e.Time) {
			return fmt.Errorf("script[%d] %s: recovery %v not finite and after fault time %v",
				i, e.Kind, e.Recovery, e.Time)
		}
		// Overlap check against earlier events on the same victim: a
		// repair window still open when the next same-kind fault strikes.
		for j := 0; j < i; j++ {
			o := script[j]
			if o.Kind != e.Kind || o.Node != e.Node || o.GPU != e.GPU || o.Slice != e.Slice {
				continue
			}
			if e.Time < o.Recovery && o.Time < e.Recovery {
				return fmt.Errorf("script[%d] and script[%d]: overlapping %s windows on the same victim "+
					"([%.2f,%.2f) vs [%.2f,%.2f))", j, i, e.Kind, o.Time, o.Recovery, e.Time, e.Recovery)
			}
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
