package vgpu

import (
	"math"
	"testing"
	"testing/quick"

	"fluidfaas/internal/mig"
)

func TestKernelTimeRoofline(t *testing.T) {
	// Pure compute kernel saturating the GPU: time = work/peak.
	k := Kernel{GFLOPs: PeakTFLOPs * 1e3, MBytes: 0, Parallelism: 7}
	got := KernelTime(k, mig.Slice7g)
	if math.Abs(got-(1+LaunchOverhead)) > 1e-9 {
		t.Errorf("compute-bound time = %v, want ~1s", got)
	}
	// Pure memory kernel: time = bytes/bandwidth, halved slice -> 1/8
	// bandwidth on 1g.
	m := Kernel{GFLOPs: 0, MBytes: PeakBWGBps * 1e3, Parallelism: 7}
	whole := KernelTime(m, mig.Slice7g)
	oneG := KernelTime(m, mig.Slice1g)
	if math.Abs(whole-(1+LaunchOverhead)) > 1e-9 {
		t.Errorf("memory-bound time = %v, want ~1s", whole)
	}
	if ratio := oneG / whole; math.Abs(ratio-8) > 0.01 {
		t.Errorf("1g memory slowdown = %.2fx, want 8x (1/8 bandwidth)", ratio)
	}
}

func TestOccupancyLimitsScaling(t *testing.T) {
	// A kernel that can only use 1 GPC runs equally fast on every slice.
	k := Kernel{GFLOPs: 100, MBytes: 0, Parallelism: 1}
	t1 := KernelTime(k, mig.Slice1g)
	t7 := KernelTime(k, mig.Slice7g)
	if math.Abs(t1-t7) > 1e-12 {
		t.Errorf("occupancy-limited kernel: t(1g)=%v != t(7g)=%v", t1, t7)
	}
}

func TestKernelTimeMonotone(t *testing.T) {
	k := Kernel{GFLOPs: 500, MBytes: 400, Parallelism: 7}
	prev := math.Inf(1)
	for _, st := range mig.SliceTypes {
		cur := KernelTime(k, st)
		if cur > prev+1e-12 {
			t.Errorf("time increased with slice size at %v: %v > %v", st, cur, prev)
		}
		prev = cur
	}
}

func TestNegativeKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative footprint did not panic")
		}
	}()
	KernelTime(Kernel{GFLOPs: -1}, mig.Slice1g)
}

func resnetish(batch int) Model {
	var ks []Kernel
	ks = append(ks, ConvLayer("stem", batch, 112, 112, 3, 64, 7, 7))
	for i := 0; i < 8; i++ {
		ks = append(ks, ConvLayer("block", batch, 28, 28, 256, 256, 3, 3))
	}
	ks = append(ks, MatMulLayer("fc", batch, 2048, 1000))
	return Model{
		Name: "resnetish", Kernels: ks,
		ParamsGB: 0.2, ActivationGB: 0.2 * float64(batch), OutMB: 0.1,
	}
}

func TestModelProfileAndOOM(t *testing.T) {
	m := resnetish(4)
	for _, st := range mig.SliceTypes {
		if _, ok := m.ExecOn(st); !ok {
			t.Errorf("%.1f GB model does not fit %v", m.MemGB(), st)
		}
	}
	t1, _ := m.ExecOn(mig.Slice1g)
	t7, _ := m.ExecOn(mig.Slice7g)
	if t1 <= t7 {
		t.Error("1g not slower than 7g")
	}
	// A model bigger than 10 GB must not fit 1g.
	big := m
	big.ParamsGB = 12
	if _, ok := big.ExecOn(mig.Slice1g); ok {
		t.Error("12 GB model fits 1g")
	}
	if _, ok := big.ExecOn(mig.Slice2g); !ok {
		t.Error("12.x GB model should fit 2g")
	}
}

func TestEffectiveAlphaSublinear(t *testing.T) {
	// Small batch: occupancy-limited kernels make scaling sublinear.
	small := resnetish(1)
	alpha, ok := small.EffectiveAlpha(mig.Slice1g, mig.Slice7g)
	if !ok {
		t.Fatal("alpha unavailable")
	}
	if alpha <= 0 || alpha >= 1 {
		t.Errorf("small-batch alpha = %.2f, want in (0,1)", alpha)
	}
	// Bigger batch parallelises better: alpha grows.
	large := resnetish(32)
	alphaL, ok := large.EffectiveAlpha(mig.Slice1g, mig.Slice7g)
	if !ok {
		t.Fatal("alpha unavailable")
	}
	if alphaL <= alpha {
		t.Errorf("alpha should grow with batch: %.2f (b=1) vs %.2f (b=32)", alpha, alphaL)
	}
	// Degenerate queries.
	if _, ok := small.EffectiveAlpha(mig.Slice7g, mig.Slice1g); ok {
		t.Error("reversed slices accepted")
	}
}

func TestLayerBuilders(t *testing.T) {
	c := ConvLayer("c", 1, 56, 56, 64, 64, 3, 3)
	if c.GFLOPs <= 0 || c.MBytes <= 0 {
		t.Errorf("conv kernel degenerate: %+v", c)
	}
	// FLOPs = 2 * outElems * inC*kH*kW.
	wantGFLOPs := 2 * float64(56*56*64) * float64(64*3*3) / 1e9
	if math.Abs(c.GFLOPs-wantGFLOPs) > 1e-9 {
		t.Errorf("conv GFLOPs = %v, want %v", c.GFLOPs, wantGFLOPs)
	}
	m := MatMulLayer("m", 8, 1024, 1024)
	wantG := 2 * 8.0 * 1024 * 1024 / 1e9 // 2*batch*in*out FLOPs
	if math.Abs(m.GFLOPs-wantG) > 1e-9 {
		t.Errorf("matmul GFLOPs = %v, want %v", m.GFLOPs, wantG)
	}
	if c.Parallelism < 0.5 || c.Parallelism > 7 || m.Parallelism < 0.5 || m.Parallelism > 7 {
		t.Error("parallelism outside [0.5, 7]")
	}
}

// Property: model execution time is non-increasing in slice size and
// positive, for random kernel mixes.
func TestModelMonotoneProperty(t *testing.T) {
	f := func(gf, mb, par uint16) bool {
		k := Kernel{
			GFLOPs:      float64(gf%5000) + 1,
			MBytes:      float64(mb % 8000),
			Parallelism: float64(par%70)/10 + 0.5,
		}
		m := Model{Name: "p", Kernels: []Kernel{k}, ParamsGB: 1}
		prev := math.Inf(1)
		for _, st := range mig.SliceTypes {
			cur, ok := m.ExecOn(st)
			if !ok || cur <= 0 || cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
