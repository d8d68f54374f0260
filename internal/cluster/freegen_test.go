package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"fluidfaas/internal/mig"
)

// TestClusterFreeGenProperty drives a two-node cluster with a seeded
// random mix of the six free-set mutators (slice allocate, release,
// health and quarantine flips, GPU and node health flips) and of calls
// that leave free sets alone (slice activity, host-pool reservations).
// Every mutator call advances Cluster.FreeGen, and while FreeGen holds,
// every node's FreeSlices is the one it was when the generation was
// first read.
func TestClusterFreeGenProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(Spec{Nodes: 2, GPUConfigs: mig.UniformNode(mig.DefaultConfig, 2), CPUMemGB: 100})
		var all []*mig.Slice
		var gpus []*mig.GPU
		for _, n := range c.Nodes {
			all = append(all, n.Slices()...)
			gpus = append(gpus, n.GPUs...)
		}
		snapshot := func() [][]*mig.Slice {
			out := make([][]*mig.Slice, len(c.Nodes))
			for i, n := range c.Nodes {
				out[i] = n.FreeSlices()
			}
			return out
		}
		gen, views := c.FreeGen(), snapshot()
		for step := 0; step < 500; step++ {
			s := all[rng.Intn(len(all))]
			on := rng.Intn(2) == 0
			mutated := true
			switch rng.Intn(7) {
			case 0:
				if s.Free() {
					s.Allocate("x", float64(step))
				} else {
					s.Release(float64(step))
				}
			case 1:
				s.SetHealthy(on)
			case 2:
				s.SetQuarantined(on)
			case 3:
				gpus[rng.Intn(len(gpus))].SetHealthy(on)
			case 4:
				c.Nodes[rng.Intn(len(c.Nodes))].SetHealthy(on)
			case 5:
				mutated = false
				if !s.Free() {
					s.SetActive(on, float64(step))
				}
			case 6:
				mutated = false
				pool := c.Nodes[rng.Intn(len(c.Nodes))].Pool()
				if key := string(rune('a' + rng.Intn(3))); pool.Has(key) {
					pool.ReleaseModel(key)
				} else {
					pool.ReserveModel(key, 20)
				}
			}
			got := c.FreeGen()
			switch {
			case mutated && got <= gen:
				t.Fatalf("seed %d step %d: a mutator left FreeGen at %d (was %d)", seed, step, got, gen)
			case got == gen:
				for i, v := range snapshot() {
					if !slices.Equal(v, views[i]) {
						t.Fatalf("seed %d step %d: node %d free slices changed while FreeGen held at %d", seed, step, i, gen)
					}
				}
			default:
				gen, views = got, snapshot()
			}
		}
	}
}
