package mps

import (
	"math"
	"testing"
	"testing/quick"

	"fluidfaas/internal/sim"
)

func profiles() []FunctionProfile {
	return []FunctionProfile{
		{Name: "a", Exec: 0.5, WantGPCs: 4, MemGB: 20, SLO: 1.0},
		{Name: "b", Exec: 0.3, WantGPCs: 2, MemGB: 10, SLO: 0.8},
	}
}

func TestSlowdownModel(t *testing.T) {
	// Alone: no slowdown.
	if got := Slowdown(4, 0); got != 1 {
		t.Errorf("Slowdown(4,0) = %v, want 1", got)
	}
	// Under capacity: contention term only.
	got := Slowdown(4, 2)
	want := 1 * (1 + Beta*2/7)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Slowdown(4,2) = %v, want %v", got, want)
	}
	// Oversubscribed: proportional sharing times contention.
	got = Slowdown(4, 7)
	want = (11.0 / 7.0) * (1 + Beta)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Slowdown(4,7) = %v, want %v", got, want)
	}
}

// Property: slowdown is monotone in co-runner demand and >= 1.
func TestSlowdownMonotoneProperty(t *testing.T) {
	f := func(w8, o8, d8 uint8) bool {
		w := float64(w8%7) + 1
		o := float64(o8 % 14)
		d := float64(d8%7) + 0.5
		s1 := Slowdown(w, o)
		s2 := Slowdown(w, o+d)
		return s1 >= 1 && s2 >= s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSingleRequestNoInterference(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, 2, profiles())
	c.Submit(0, 0)
	eng.Run()
	r := c.Finish(10)
	if r.Completed != 1 || r.Total != 1 {
		t.Fatalf("completed %d/%d", r.Completed, r.Total)
	}
	if r.MeanSlowdown != 1 {
		t.Errorf("mean slowdown = %v, want 1 (alone)", r.MeanSlowdown)
	}
	if r.SLOHit != 1 {
		t.Errorf("SLO hit = %v, want 1", r.SLOHit)
	}
	if r.ExposureSeconds != 0 {
		t.Errorf("exposure = %v, want 0 (single tenant)", r.ExposureSeconds)
	}
}

func TestInterferenceBetweenTenants(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, 1, profiles()) // force co-location
	eng.At(0, func() {
		c.Submit(0, 0)
		c.Submit(1, 0)
	})
	eng.Run()
	r := c.Finish(10)
	if r.Completed != 2 {
		t.Fatalf("completed %d, want 2", r.Completed)
	}
	if r.MeanSlowdown <= 1 {
		t.Errorf("mean slowdown = %v, want > 1 (co-located)", r.MeanSlowdown)
	}
	if r.ExposureSeconds <= 0 {
		t.Errorf("exposure = %v, want > 0 (two tenants share a context)", r.ExposureSeconds)
	}
}

func TestNoFragmentationUnderMPS(t *testing.T) {
	// Three 20 GB tenants fit one 80 GB GPU — MPS has no slice shapes
	// to fragment. All spawn on the same GPU.
	eng := sim.NewEngine()
	profs := []FunctionProfile{
		{Name: "x", Exec: 0.1, WantGPCs: 3, MemGB: 20, SLO: 5},
		{Name: "y", Exec: 0.1, WantGPCs: 3, MemGB: 20, SLO: 5},
		{Name: "z", Exec: 0.1, WantGPCs: 3, MemGB: 20, SLO: 5},
	}
	c := NewCluster(eng, 1, profs)
	eng.At(0, func() {
		for fn := range profs {
			c.Submit(fn, 0)
		}
	})
	eng.Run()
	r := c.Finish(1)
	if r.Completed != 3 {
		t.Fatalf("completed %d, want 3", r.Completed)
	}
	if r.Processes != 3 {
		t.Errorf("processes = %d, want 3", r.Processes)
	}
}

func TestMemoryExhaustionDropsRequests(t *testing.T) {
	eng := sim.NewEngine()
	profs := []FunctionProfile{
		{Name: "big", Exec: 0.1, WantGPCs: 7, MemGB: 60, SLO: 5},
		{Name: "huge", Exec: 0.1, WantGPCs: 7, MemGB: 60, SLO: 5},
	}
	c := NewCluster(eng, 1, profs)
	eng.At(0, func() {
		c.Submit(0, 0)
		c.Submit(1, 0) // cannot spawn: 60+60 > 80
	})
	eng.Run()
	r := c.Finish(1)
	if r.Completed != 1 || r.Total != 2 {
		t.Errorf("completed %d/%d, want 1/2", r.Completed, r.Total)
	}
}

func TestQueueBacklogSpawnsProcesses(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, 4, profiles())
	// A burst of one function's requests should fan out to multiple
	// processes across GPUs.
	eng.At(0, func() {
		for i := 0; i < 8; i++ {
			c.Submit(0, 0)
		}
	})
	eng.Run()
	r := c.Finish(5)
	if r.Completed != 8 {
		t.Fatalf("completed %d, want 8", r.Completed)
	}
	if r.Processes < 2 {
		t.Errorf("processes = %d, want fan-out", r.Processes)
	}
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero GPUs accepted")
		}
	}()
	NewCluster(sim.NewEngine(), 0, nil)
}
