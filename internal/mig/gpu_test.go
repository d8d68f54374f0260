package mig

import "testing"

func TestGPUAllocateRelease(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	free := g.FreeSlices()
	if len(free) != 3 {
		t.Fatalf("free slices = %d, want 3", len(free))
	}
	if free[0].Type != Slice4g || free[1].Type != Slice2g || free[2].Type != Slice1g {
		t.Errorf("free slices not sorted largest first: %v %v %v",
			free[0].Type, free[1].Type, free[2].Type)
	}
	s := free[0]
	s.Allocate("inst-a", 10)
	if s.Free() {
		t.Error("slice still free after Allocate")
	}
	if got := len(g.FreeSlices()); got != 2 {
		t.Errorf("free slices after alloc = %d, want 2", got)
	}
	if g.OccupiedGPCs() != 4 {
		t.Errorf("OccupiedGPCs = %d, want 4", g.OccupiedGPCs())
	}
	s.Release(30)
	if !s.Free() {
		t.Error("slice not free after Release")
	}
	if got := s.OccupiedTime(100); got != 20 {
		t.Errorf("OccupiedTime = %v, want 20", got)
	}
}

func TestGPUDoubleAllocatePanics(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	s := g.Slices[0]
	s.Allocate("a", 0)
	defer func() {
		if recover() == nil {
			t.Error("double allocate did not panic")
		}
	}()
	s.Allocate("b", 1)
}

func TestGPUReleaseFreePanics(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	defer func() {
		if recover() == nil {
			t.Error("release of free slice did not panic")
		}
	}()
	g.Slices[0].Release(0)
}

func TestSliceActivityAccounting(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	s := g.Slices[0]
	s.Allocate("a", 0)
	s.SetActive(true, 10)
	s.SetActive(false, 25)
	s.SetActive(true, 30)
	if got := s.ActiveTime(40); got != 25 {
		t.Errorf("ActiveTime = %v, want 25 (15 closed + 10 open)", got)
	}
	s.SetActive(false, 40)
	if got := s.ActiveTime(100); got != 25 {
		t.Errorf("ActiveTime after close = %v, want 25", got)
	}
	// Redundant transitions are no-ops.
	s.SetActive(false, 50)
	if got := s.ActiveTime(100); got != 25 {
		t.Errorf("ActiveTime after redundant SetActive = %v", got)
	}
}

// GPU time is the union of slice activity; MIG time is the sum.
func TestGPUTimeUnionVsMIGTimeSum(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	a, b := g.Slices[0], g.Slices[1]
	a.Allocate("x", 0)
	b.Allocate("y", 0)
	// a active [0,10); b active [5,20). Union = 20, sum = 25.
	a.SetActive(true, 0)
	b.SetActive(true, 5)
	a.SetActive(false, 10)
	b.SetActive(false, 20)
	if got := g.ActiveTime(30); got != 20 {
		t.Errorf("GPU time = %v, want 20 (union)", got)
	}
	if got := g.MIGTime(30); got != 25 {
		t.Errorf("MIG time = %v, want 25 (sum)", got)
	}
	if g.ActiveGPCs() != 0 {
		t.Errorf("ActiveGPCs = %d, want 0", g.ActiveGPCs())
	}
}

func TestReleaseWhileActiveClosesActivity(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	s := g.Slices[0]
	s.Allocate("a", 0)
	s.SetActive(true, 5)
	s.Release(15)
	if got := s.ActiveTime(100); got != 10 {
		t.Errorf("ActiveTime = %v, want 10", got)
	}
	if got := g.ActiveTime(100); got != 10 {
		t.Errorf("GPU time = %v, want 10", got)
	}
}

func TestNewGPUInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGPU accepted invalid config")
		}
	}()
	NewGPU(0, 0, Config{Slice7g, Slice7g})
}

func TestSliceIDStable(t *testing.T) {
	g := NewGPU(0, 3, DefaultConfig)
	if got := g.Slices[1].ID(); got != "gpu3/2g.20gb#1" {
		t.Errorf("slice ID = %q", got)
	}
}

func TestFragmentationIndex(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	// All free: largest is the 4g of 7 total -> 1 - 4/7.
	if got, want := FragmentationIndex([]*GPU{g}), 1-4.0/7.0; mathAbs(got-want) > 1e-12 {
		t.Errorf("index = %v, want %v", got, want)
	}
	// Occupy the 4g: free = 2g+1g, largest 2 of 3 -> 1/3.
	g.Slices[0].Allocate("a", 0)
	if got := FragmentationIndex([]*GPU{g}); mathAbs(got-1.0/3.0) > 1e-12 {
		t.Errorf("index = %v, want 1/3", got)
	}
	// Everything allocated: no free compute -> 0.
	g.Slices[1].Allocate("b", 0)
	g.Slices[2].Allocate("c", 0)
	if got := FragmentationIndex([]*GPU{g}); got != 0 {
		t.Errorf("index with nothing free = %v, want 0", got)
	}
}

func TestStrandedGPCs(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	g.Slices[0].Allocate("a", 0) // 4g busy; 2g+1g free
	// A 4g-class function strands all 3 free GPCs.
	if got := StrandedGPCs([]*GPU{g}, 4); got != 3 {
		t.Errorf("stranded = %d, want 3", got)
	}
	// A 2g-class function can be placed: nothing stranded.
	if got := StrandedGPCs([]*GPU{g}, 2); got != 0 {
		t.Errorf("stranded for placeable = %d, want 0", got)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestEnumerationGolden pins the size of the valid-partition space so a
// placement-rule regression is caught immediately.
func TestEnumerationGolden(t *testing.T) {
	all := EnumerateConfigs()
	// Derived from the A100 placement rules in config.go (e.g. a 3g on
	// the right half frees the left half's four 1g slots); update only
	// with a deliberate rule change.
	const want = 37
	if len(all) != want {
		t.Errorf("EnumerateConfigs() = %d configs, want %d", len(all), want)
	}
	nMax := 0
	for _, c := range all {
		if c.Maximal() {
			nMax++
		}
	}
	// The 12 maximal configurations include the paper's P2 (3g+2g+2g)
	// and the default 4g+2g+1g.
	if nMax != 12 {
		t.Errorf("maximal configs = %d, want 12", nMax)
	}
}

// TestSliceQuarantine: a quarantined slice leaves every placement view
// (FreeSlices, Usable) without being marked unhealthy, each flip bumps
// the free-set generation so cached views invalidate, and lifting the
// quarantine restores it.
func TestSliceQuarantine(t *testing.T) {
	g := NewGPU(0, 0, DefaultConfig)
	s := g.Slices[0]
	if s.Quarantined() {
		t.Fatal("fresh slice quarantined")
	}
	gen := g.Gen()
	s.SetQuarantined(true)
	if g.Gen() == gen {
		t.Error("quarantine did not bump the free-set generation")
	}
	if !s.Healthy() {
		t.Error("quarantine must not mark the slice unhealthy")
	}
	if s.Usable() {
		t.Error("quarantined slice reports usable")
	}
	for _, f := range g.FreeSlices() {
		if f == s {
			t.Fatal("quarantined slice still in FreeSlices")
		}
	}
	if got := len(g.FreeSlices()); got != 2 {
		t.Errorf("free slices with one quarantined = %d, want 2", got)
	}
	gen = g.Gen()
	s.SetQuarantined(false)
	if g.Gen() == gen {
		t.Error("probation did not bump the free-set generation")
	}
	if !s.Usable() || len(g.FreeSlices()) != 3 {
		t.Error("slice did not return to placement after probation")
	}
}
