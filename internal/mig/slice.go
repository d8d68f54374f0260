// Package mig models NVIDIA Multi-Instance GPU (MIG) partitioning on an
// A100-80GB: slice profiles (paper Table 2), physically valid partition
// configurations, per-slice allocation state, and the activity accounting
// behind the paper's "GPU time" and "MIG time" metrics.
//
// The model encodes the properties FluidFaaS's scheduling depends on:
// slices are hardware-isolated, only specific combinations can coexist on
// one GPU, and repartitioning takes minutes, so a GPU's partition is
// fixed for the whole run.
package mig

import (
	"fmt"
)

// SliceType identifies a MIG slice profile on an A100-80GB.
type SliceType int

// The five A100 MIG slice profiles (paper Table 2).
const (
	Slice1g SliceType = iota // 1g.10gb: 1 GPC, 10 GB
	Slice2g                  // 2g.20gb: 2 GPCs, 20 GB
	Slice3g                  // 3g.40gb: 3 GPCs, 40 GB
	Slice4g                  // 4g.40gb: 4 GPCs, 40 GB
	Slice7g                  // 7g.80gb: 7 GPCs, 80 GB
	numSliceTypes
)

// NumSliceTypes is the number of slice profiles; SliceType values are
// dense in [0, NumSliceTypes), so it sizes per-type lookup tables.
const NumSliceTypes = int(numSliceTypes)

// SliceTypes lists all profiles from smallest to largest.
var SliceTypes = []SliceType{Slice1g, Slice2g, Slice3g, Slice4g, Slice7g}

// LessCompute orders slice profiles by compute capacity: fewer GPCs
// first, memory breaking ties, raw enum value last so the order is
// total. Placement code uses this instead of the raw enum comparison so
// "smallest fitting slice" does not silently depend on declaration
// order.
func LessCompute(a, b SliceType) bool {
	if a.GPCs() != b.GPCs() {
		return a.GPCs() < b.GPCs()
	}
	if a.MemGB() != b.MemGB() {
		return a.MemGB() < b.MemGB()
	}
	return a < b
}

type sliceProfile struct {
	name     string
	gpcs     int
	memGB    int
	maxCount int // max instances of this profile on one GPU (Table 2)
	memSlots int // memory slots occupied (of 8 on an A100)
}

var profiles = [numSliceTypes]sliceProfile{
	Slice1g: {"1g.10gb", 1, 10, 7, 1},
	Slice2g: {"2g.20gb", 2, 20, 3, 2},
	Slice3g: {"3g.40gb", 3, 40, 2, 4},
	Slice4g: {"4g.40gb", 4, 40, 1, 4},
	Slice7g: {"7g.80gb", 7, 80, 1, 8},
}

func (t SliceType) valid() bool { return t >= 0 && t < numSliceTypes }

func (t SliceType) profile() sliceProfile {
	if !t.valid() {
		panic(fmt.Sprintf("mig: invalid SliceType %d", int(t)))
	}
	return profiles[t]
}

// String returns the NVIDIA profile name, e.g. "2g.20gb".
func (t SliceType) String() string { return t.profile().name }

// GPCs returns the number of graphics processing clusters in the slice.
func (t SliceType) GPCs() int { return t.profile().gpcs }

// MemGB returns the slice's GPU memory in gigabytes.
func (t SliceType) MemGB() int { return t.profile().memGB }

// MaxCount returns the maximum number of slices of this profile that can
// coexist on one GPU (Table 2).
func (t SliceType) MaxCount() int { return t.profile().maxCount }

// MemSlots returns the number of A100 memory slots (of 8) the profile
// occupies; this drives partition validity.
func (t SliceType) MemSlots() int { return t.profile().memSlots }

// ParseSliceType converts a profile name such as "3g.40gb" to a SliceType.
func ParseSliceType(s string) (SliceType, error) {
	for _, t := range SliceTypes {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("mig: unknown slice profile %q", s)
}
