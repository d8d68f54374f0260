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
	pool := c.Nodes[0].Pool()
	if pool.CapacityGB() != 50 {
		t.Fatalf("pool capacity = %v, want the node's 50 GB", pool.CapacityGB())
	}
	if !pool.ReserveModel("a", 30) {
		t.Fatal("ReserveModel(a, 30) failed with 50 free")
	}
	if pool.ReserveModel("b", 30) {
		t.Fatal("ReserveModel(b, 30) succeeded with only 20 free")
	}
	if !pool.ReserveModel("b", 20) {
		t.Fatal("ReserveModel(b, 20) failed with exactly 20 free")
	}
	pool.ReleaseModel("a")
	if pool.UsedGB() != 20 {
		t.Errorf("UsedGB = %v, want 20", pool.UsedGB())
	}
	pool.ReleaseModel("b")
	if pool.UsedGB() != 0 {
		t.Errorf("UsedGB = %v, want 0", pool.UsedGB())
	}
}

// TestReleaseWarmTwiceIsNoop: releasing a copy the pool no longer holds
// changes nothing, so a teardown can never drive host memory negative.
func TestReleaseWarmTwiceIsNoop(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	pool := c.Nodes[0].Pool()
	pool.ReleaseModel("never-reserved")
	pool.ReserveModel("a", 10)
	pool.ReserveModel("b", 15)
	pool.ReleaseModel("a")
	pool.ReleaseModel("a")
	if pool.UsedGB() != 15 {
		t.Errorf("UsedGB = %v after a double release, want 15", pool.UsedGB())
	}
}

func TestReleaseWarmFloatNoiseClamps(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	pool := c.Nodes[0].Pool()
	// 0.7 + 0.1 - 0.7 - 0.1 is about -2.8e-17 in float64: releasing
	// every copy leaves float noise, which clamps to zero instead of
	// going negative.
	pool.ReserveModel("a", 0.7)
	pool.ReserveModel("b", 0.1)
	pool.ReleaseModel("a")
	pool.ReleaseModel("b")
	if pool.UsedGB() != 0 {
		t.Errorf("UsedGB = %v, want 0 after noise-clamped release", pool.UsedGB())
	}
	if !pool.ReserveModel("c", 50) {
		t.Error("full-capacity reservation failed after clamp")
	}
}

func TestDropWarmThenReReserve(t *testing.T) {
	c := New(Spec{Nodes: 1, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 1), CPUMemGB: 50})
	pool := c.Nodes[0].Pool()
	pool.ReserveModel("a", 30)
	pool.ReserveModel("m", 20)
	pool.DropAll() // a node crash loses CPU memory
	if pool.UsedGB() != 0 {
		t.Fatalf("UsedGB = %v after DropAll, want 0", pool.UsedGB())
	}
	if pool.Has("a") || pool.Has("m") {
		t.Error("a copy survived DropAll")
	}
	// The crash wiped the reservations; the full capacity is reusable
	// and releasing a wiped copy must not be double-counted.
	if !pool.ReserveModel("b", 50) {
		t.Error("ReserveModel(b, 50) failed after DropAll emptied the pool")
	}
	pool.ReleaseModel("a")
	if pool.UsedGB() != 50 {
		t.Errorf("UsedGB = %v after releasing a wiped copy, want 50", pool.UsedGB())
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
