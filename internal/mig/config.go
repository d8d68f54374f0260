package mig

import (
	"sort"
	"strings"
)

// Config is the set of slice profiles a single GPU is partitioned into.
// Order is not significant; Canonical sorts largest-first.
type Config []SliceType

// placements lists the memory-slot ranges each profile may occupy on an
// A100 (8 memory slots, 7 GPCs). These hardware placement rules are what
// make "arbitrary MIG partitions" impossible (paper §2.2).
var placements = map[SliceType][][2]int{
	Slice1g: {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
	Slice2g: {{0, 2}, {2, 4}, {4, 6}},
	Slice3g: {{0, 4}, {4, 8}},
	Slice4g: {{0, 4}},
	Slice7g: {{0, 8}},
}

// Canonical returns a copy of the config sorted largest slice first.
func (c Config) Canonical() Config {
	out := make(Config, len(c))
	copy(out, c)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// String renders the config as "4g.40gb+2g.20gb+1g.10gb".
func (c Config) String() string {
	if len(c) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(c))
	for i, t := range c.Canonical() {
		parts[i] = t.String()
	}
	return strings.Join(parts, "+")
}

// TotalGPCs returns the summed compute of all slices.
func (c Config) TotalGPCs() int {
	n := 0
	for _, t := range c {
		n += t.GPCs()
	}
	return n
}

// Counts returns the number of slices of each profile.
func (c Config) Counts() map[SliceType]int {
	m := make(map[SliceType]int, len(c))
	for _, t := range c {
		m[t]++
	}
	return m
}

// Valid reports whether the slices can physically coexist on one A100:
// there must be a non-overlapping assignment of each slice to one of its
// allowed memory-slot ranges, the per-profile max counts must hold, and
// total compute must not exceed 7 GPCs.
func (c Config) Valid() bool {
	if len(c) == 0 {
		return false
	}
	if c.TotalGPCs() > 7 {
		return false
	}
	for t, n := range c.Counts() {
		if n > t.MaxCount() {
			return false
		}
	}
	// Backtracking placement, largest slices first (fewest options first).
	sorted := c.Canonical()
	var occupied [8]bool
	var place func(i int) bool
	place = func(i int) bool {
		if i == len(sorted) {
			return true
		}
		for _, r := range placements[sorted[i]] {
			ok := true
			for s := r[0]; s < r[1]; s++ {
				if occupied[s] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for s := r[0]; s < r[1]; s++ {
				occupied[s] = true
			}
			if place(i + 1) {
				return true
			}
			for s := r[0]; s < r[1]; s++ {
				occupied[s] = false
			}
		}
		return false
	}
	return place(0)
}

// Partition schemes used in the paper's evaluation.
var (
	// DefaultConfig is the default per-GPU partition (§6): one 4g.40gb,
	// one 2g.20gb and one 1g.10gb.
	DefaultConfig = Config{Slice4g, Slice2g, Slice1g}
	// ConfigP1 is scheme P1 (Table 7): identical to the default, applied
	// to all 8 GPUs of a node.
	ConfigP1 = Config{Slice4g, Slice2g, Slice1g}
	// ConfigP2 is scheme P2 (Table 7): 3g.40gb + 2g.20gb + 2g.20gb.
	ConfigP2 = Config{Slice3g, Slice2g, Slice2g}
	// ConfigFull1g partitions the whole GPU into seven 1g.10gb slices.
	ConfigFull1g = Config{Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g}
	// Config2g3x1g is 2g.20gb ×3 + 1g.10gb (used by the Hybrid scheme).
	Config2g3x1g = Config{Slice2g, Slice2g, Slice2g, Slice1g}
	// Config3g4g is 3g.40gb + 4g.40gb (used by the Hybrid scheme).
	Config3g4g = Config{Slice4g, Slice3g}
	// ConfigWhole is the unpartitioned GPU as a single 7g.80gb slice.
	ConfigWhole = Config{Slice7g}
)

// HybridNode returns the per-GPU partitions of the paper's Hybrid scheme
// (Table 7) for an 8-GPU node: 1×[1g×7], 2×[2g×3+1g], 4×[3g+4g],
// 1×[4g+2g+1g].
func HybridNode() []Config {
	return []Config{
		ConfigFull1g,
		Config2g3x1g, Config2g3x1g,
		Config3g4g, Config3g4g, Config3g4g, Config3g4g,
		DefaultConfig,
	}
}

// UniformNode returns cfg repeated for each of n GPUs.
func UniformNode(cfg Config, n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = cfg
	}
	return out
}
