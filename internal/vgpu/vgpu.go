// Package vgpu is a virtual GPU executor: it costs DNN models described
// as kernel sequences on MIG slices with a roofline model (compute
// ceiling, partitioned memory bandwidth, occupancy limits, launch
// overhead). It is the measurement substrate behind BUILDDAG-mode
// profiling (§5.2.1): given a model a developer registers, the profiler
// "runs" it on every slice profile and fills the FFS DAG's per-slice
// execution map — the role real profiling runs play on physical MIGs.
//
// The catalog in internal/dnn carries pre-calibrated profiles for the
// paper's applications; vgpu is the path for custom models (see
// examples/custommodel).
package vgpu

import (
	"fmt"
	"math"

	"fluidfaas/internal/mig"
)

// A100-80GB roofline constants. Sustained (achieved) rates, not
// datasheet peaks: real inference kernels reach roughly half of the
// tensor-core peak and three quarters of HBM bandwidth.
const (
	// PeakTFLOPs is the whole-GPU sustained half-precision throughput.
	PeakTFLOPs = 156.0
	// PeakBWGBps is the whole-GPU sustained HBM bandwidth.
	PeakBWGBps = 1555.0
	// LaunchOverhead is the per-kernel dispatch cost in seconds.
	LaunchOverhead = 8e-6
)

// Kernel is one GPU kernel's resource footprint.
type Kernel struct {
	Name string
	// GFLOPs of arithmetic work.
	GFLOPs float64
	// MBytes of DRAM traffic.
	MBytes float64
	// Parallelism is how many GPCs the kernel can saturate (0 < p <= 7).
	// Small kernels bound by occupancy run no faster on bigger slices —
	// the source of MIG's sublinear scaling.
	Parallelism float64
}

// bandwidthShare returns the fraction of HBM bandwidth a slice owns:
// MIG partitions bandwidth with the memory slices (1g gets 1/8, 3g and
// 4g get 4/8, the whole GPU 8/8).
func bandwidthShare(t mig.SliceType) float64 {
	return float64(t.MemSlots()) / 8.0
}

// computeShare returns the fraction of peak compute available to a
// kernel on a slice: the slice's GPCs capped by the kernel's
// parallelism.
func computeShare(k Kernel, t mig.SliceType) float64 {
	g := float64(t.GPCs())
	if k.Parallelism > 0 && k.Parallelism < g {
		g = k.Parallelism
	}
	return g / 7.0
}

// KernelTime returns the roofline execution time of one kernel on a
// slice: the slower of its compute and memory phases, plus launch
// overhead.
func KernelTime(k Kernel, t mig.SliceType) float64 {
	if k.GFLOPs < 0 || k.MBytes < 0 {
		panic(fmt.Sprintf("vgpu: negative kernel footprint %+v", k))
	}
	compute := (k.GFLOPs / 1e3) / (PeakTFLOPs * computeShare(k, t))
	memory := (k.MBytes / 1e3) / (PeakBWGBps * bandwidthShare(t))
	et := compute
	if memory > et {
		et = memory
	}
	return et + LaunchOverhead
}

// Model is a DNN model described by its kernel sequence and memory
// footprint.
type Model struct {
	Name string
	// Kernels execute sequentially per inference.
	Kernels []Kernel
	// ParamsGB is the weight footprint.
	ParamsGB float64
	// ActivationGB is the per-request activation footprint.
	ActivationGB float64
	// OutMB is the output tensor size (for pipeline transfer costing).
	OutMB float64
}

// MemGB returns the model's resident footprint.
func (m Model) MemGB() float64 { return m.ParamsGB + m.ActivationGB }

// ExecOn returns the model's inference time on a slice, and whether the
// model fits its memory.
func (m Model) ExecOn(t mig.SliceType) (float64, bool) {
	if m.MemGB() > float64(t.MemGB()) {
		return 0, false
	}
	total := 0.0
	for _, k := range m.Kernels {
		total += KernelTime(k, t)
	}
	return total, true
}

// EffectiveAlpha estimates the model's GPC-scaling exponent between two
// slice profiles: t(small) = t(big)·(gBig/gSmall)^alpha. It quantifies
// how much the model benefits from bigger slices — the sublinearity
// FluidFaaS exploits (alpha << 1 means fragments are nearly free
// throughput).
func (m Model) EffectiveAlpha(small, big mig.SliceType) (float64, bool) {
	ts, okS := m.ExecOn(small)
	tb, okB := m.ExecOn(big)
	if !okS || !okB || ts <= 0 || tb <= 0 || small.GPCs() >= big.GPCs() {
		return 0, false
	}
	ratio := ts / tb
	gr := float64(big.GPCs()) / float64(small.GPCs())
	return logRatio(ratio) / logRatio(gr), true
}

func logRatio(x float64) float64 { return math.Log(x) }

// ConvLayer builds the kernel of a convolution layer: output elements ×
// kernel window MACs, with traffic for inputs, weights and outputs.
// Batch scales both.
func ConvLayer(name string, batch, outH, outW, inC, outC, kH, kW int) Kernel {
	outElems := float64(batch * outH * outW * outC)
	macs := outElems * float64(inC*kH*kW)
	// Bytes: read input + weights, write output (fp16).
	bytes := 2 * (float64(batch*outH*outW*inC) + float64(inC*outC*kH*kW) + outElems)
	// Parallelism grows with output size; saturates the GPU around a
	// million output elements.
	par := 7.0 * outElems / (outElems + 1e6)
	if par < 0.5 {
		par = 0.5
	}
	return Kernel{
		Name:        name,
		GFLOPs:      2 * macs / 1e9,
		MBytes:      bytes / 1e6,
		Parallelism: par,
	}
}

// MatMulLayer builds the kernel of a dense layer (batch×in times
// in×out).
func MatMulLayer(name string, batch, in, out int) Kernel {
	macs := float64(batch) * float64(in) * float64(out)
	bytes := 2 * (float64(batch*in) + float64(in*out) + float64(batch*out))
	rows := float64(batch * out)
	par := 7.0 * rows / (rows + 5e5)
	if par < 0.5 {
		par = 0.5
	}
	return Kernel{
		Name:        name,
		GFLOPs:      2 * macs / 1e9,
		MBytes:      bytes / 1e6,
		Parallelism: par,
	}
}
