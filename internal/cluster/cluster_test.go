package cluster

import (
	"testing"

	"fluidfaas/internal/mig"
)

func TestDefaultSpecMatchesPaperTestbed(t *testing.T) {
	c := New(DefaultSpec())
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(c.Nodes))
	}
	for _, n := range c.Nodes {
		if len(n.GPUs) != 8 {
			t.Errorf("node %d GPUs = %d, want 8", n.ID, len(n.GPUs))
		}
		if n.CPUMemGB != 1440 {
			t.Errorf("node %d CPU mem = %v, want 1440", n.ID, n.CPUMemGB)
		}
		if n.TotalGPCs() != 56 {
			t.Errorf("node %d GPCs = %d, want 56", n.ID, n.TotalGPCs())
		}
	}
	if c.TotalGPCs() != 112 {
		t.Errorf("cluster GPCs = %d, want 112", c.TotalGPCs())
	}
	// GPU IDs globally unique and ordered.
	all := c.AllGPUs()
	if len(all) != 16 {
		t.Fatalf("AllGPUs = %d, want 16", len(all))
	}
	for i, g := range all {
		if g.ID != i {
			t.Errorf("gpu %d has ID %d", i, g.ID)
		}
	}
}

func TestNodeFreeSlicesAndGPCs(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 100})
	n := c.Nodes[0]
	if got := len(n.FreeSlices()); got != 6 {
		t.Fatalf("free slices = %d, want 6", got)
	}
	if n.FreeGPCs() != 14 {
		t.Errorf("FreeGPCs = %d, want 14", n.FreeGPCs())
	}
	n.GPUs[0].Slices[0].Allocate("x", 0) // take the 4g
	if n.FreeGPCs() != 10 {
		t.Errorf("FreeGPCs after alloc = %d, want 10", n.FreeGPCs())
	}
	if c.OccupiedGPCs() != 4 {
		t.Errorf("OccupiedGPCs = %d, want 4", c.OccupiedGPCs())
	}
}

func TestWarmMemoryAccounting(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	n := c.Nodes[0]
	if !n.ReserveWarm(30) {
		t.Fatal("ReserveWarm(30) failed with 50 free")
	}
	if n.ReserveWarm(30) {
		t.Fatal("ReserveWarm(30) succeeded with only 20 free")
	}
	if !n.ReserveWarm(20) {
		t.Fatal("ReserveWarm(20) failed with exactly 20 free")
	}
	n.ReleaseWarm(30)
	if n.WarmMemGB() != 20 {
		t.Errorf("WarmMemGB = %v, want 20", n.WarmMemGB())
	}
	n.ReleaseWarm(20)
	if n.WarmMemGB() != 0 {
		t.Errorf("WarmMemGB = %v, want 0", n.WarmMemGB())
	}
}

func TestReleaseWarmNegativePanics(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	c.Nodes[0].ReleaseWarm(10)
}

func TestReleaseWarmFloatNoiseClamps(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	n := c.Nodes[0]
	if !n.ReserveWarm(10) {
		t.Fatal("ReserveWarm(10) failed")
	}
	// Releasing a hair more than was reserved is float noise, not a
	// bookkeeping bug: it clamps to zero instead of panicking.
	n.ReleaseWarm(10 + 1e-12)
	if n.WarmMemGB() != 0 {
		t.Errorf("WarmMemGB = %v, want 0 after noise-clamped release", n.WarmMemGB())
	}
	if !n.ReserveWarm(50) {
		t.Error("full-capacity reservation failed after clamp")
	}
}

func TestDropWarmThenReReserve(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	n := c.Nodes[0]
	if !n.ReserveWarm(30) {
		t.Fatal("ReserveWarm(30) failed")
	}
	n.Pool().ReserveModel("m", 20)
	n.DropWarm()
	if n.WarmMemGB() != 0 {
		t.Fatalf("WarmMemGB = %v after DropWarm, want 0", n.WarmMemGB())
	}
	if n.Pool().Has("m") {
		t.Error("keyed copy survived DropWarm")
	}
	// The crash wiped the reservations; the full capacity is reusable
	// and releasing the wiped reservation must not be double-counted.
	if !n.ReserveWarm(50) {
		t.Error("ReserveWarm(50) failed after DropWarm emptied the pool")
	}
	n.ReleaseWarm(50)
	if n.WarmMemGB() != 0 {
		t.Errorf("WarmMemGB = %v, want 0", n.WarmMemGB())
	}
}

func TestClusterTimes(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 100})
	g0 := c.Nodes[0].GPUs[0]
	s0, s1 := g0.Slices[0], g0.Slices[1]
	s0.Allocate("a", 0)
	s1.Allocate("b", 0)
	s0.SetActive(true, 0)
	s1.SetActive(true, 0)
	s0.SetActive(false, 10)
	s1.SetActive(false, 10)
	if got := c.GPUTime(20); got != 10 {
		t.Errorf("GPUTime = %v, want 10 (one GPU active)", got)
	}
	if got := c.MIGTime(20); got != 20 {
		t.Errorf("MIGTime = %v, want 20 (two slices × 10)", got)
	}
}

func TestHybridCluster(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.HybridNode(), CPUMemGB: 1440})
	if got := c.Nodes[0].TotalGPCs(); got != 7+7+7+7*4+7 {
		t.Errorf("hybrid node GPCs = %d, want 56", got)
	}
}

func TestNewPanics(t *testing.T) {
	for _, spec := range []Spec{
		{Nodes: 0, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1)},
		{Nodes: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", spec)
				}
			}()
			New(spec)
		}()
	}
}
