package mig

import (
	"fmt"
	"sort"
)

// ReconfigureDelay is the time (seconds) a GPU is unavailable while its
// MIG partition is changed. The paper reports several minutes for
// checkpoint, re-partition and resume (§2.2); we use 5 minutes. Nothing
// in the model repartitions: a GPU's layout is fixed when NewGPU builds
// it, which is the premise FluidFaaS pipelines around. The constant
// only costs the repartitioning alternative in the reconfiguration
// study.
const ReconfigureDelay = 300.0

// Slice is one MIG instance on a GPU: the unit of allocation, strong
// isolation, and activity accounting.
type Slice struct {
	Type SliceType
	GPU  *GPU
	// Index of the slice within its GPU.
	Index int

	// id caches ID(), rendered once when the GPU builds its slices.
	id string

	// Owner is an opaque tag identifying the holder (instance ID);
	// empty when free.
	Owner string

	// Activity accounting.
	active      bool
	activeSince float64
	activeTotal float64

	// Occupancy accounting ("occupied" = allocated to an instance,
	// regardless of whether it is processing; paper Fig. 5).
	occupiedSince float64
	occupiedTotal float64

	// unhealthy marks a faulted slice (e.g. an uncorrectable ECC error
	// in its memory partition): it cannot be allocated until repaired.
	unhealthy bool

	// quarantined marks a slice the platform's health scorer pulled
	// from placement: the hardware still runs (unlike unhealthy), but
	// its observed timing diverged from its declared profile far enough
	// that scheduling onto it would burn SLOs. Cleared on probation.
	quarantined bool
}

// bumpGen invalidates cached free-slice views of the owning GPU.
func (s *Slice) bumpGen() {
	if s.GPU != nil {
		s.GPU.bumpGen()
	}
}

// ID returns a stable identifier like "gpu3/2g.20gb#1".
func (s *Slice) ID() string { return s.id }

// Free reports whether the slice has no owner.
func (s *Slice) Free() bool { return s.Owner == "" }

// Healthy reports whether the slice itself is fault-free. A usable
// slice additionally needs a healthy GPU (see Usable).
func (s *Slice) Healthy() bool { return !s.unhealthy }

// SetHealthy marks the slice faulted (false) or repaired (true). The
// platform tears down the slice's owner when it fails; health itself
// carries no accounting.
func (s *Slice) SetHealthy(h bool) {
	s.unhealthy = !h
	s.bumpGen()
}

// Quarantined reports whether the health scorer has pulled the slice
// from placement.
func (s *Slice) Quarantined() bool { return s.quarantined }

// SetQuarantined pulls the slice from placement (true) or returns it on
// probation (false). Like health flips, it bumps the free-set
// generation so cached placement views and planner free-slice
// signatures invalidate.
func (s *Slice) SetQuarantined(q bool) {
	s.quarantined = q
	s.bumpGen()
}

// Usable reports whether the slice and its GPU are both healthy and the
// slice is not quarantined.
func (s *Slice) Usable() bool {
	return !s.unhealthy && !s.quarantined && s.GPU.Healthy()
}

// Placeable reports whether the slice is one its GPU's FreeSlices lists:
// unallocated and usable. Callers that need only sums or maxima over the
// free slices test each slice with it instead of building the sorted
// list.
func (s *Slice) Placeable() bool { return s.Free() && s.Usable() }

// Allocate assigns the slice to owner at time now. Allocating a held
// slice is a model bug and panics.
func (s *Slice) Allocate(owner string, now float64) {
	if s.Owner != "" {
		panic(fmt.Sprintf("mig: slice %s already owned by %s", s.ID(), s.Owner))
	}
	if owner == "" {
		panic("mig: empty owner")
	}
	s.Owner = owner
	s.occupiedSince = now
	s.bumpGen()
}

// Release frees the slice at time now. Releasing a free slice panics.
func (s *Slice) Release(now float64) {
	if s.Owner == "" {
		panic(fmt.Sprintf("mig: release of free slice %s", s.ID()))
	}
	if s.active {
		s.SetActive(false, now)
	}
	s.occupiedTotal += now - s.occupiedSince
	s.Owner = ""
	s.bumpGen()
}

// SetActive marks the slice as processing (or idle) at time now. Activity
// drives MIG time (per-slice busy time) and GPU time (union over the
// GPU's slices).
func (s *Slice) SetActive(active bool, now float64) {
	if s.active == active {
		return
	}
	s.active = active
	if active {
		s.activeSince = now
		s.GPU.sliceActivated(now)
	} else {
		s.activeTotal += now - s.activeSince
		s.GPU.sliceDeactivated(now)
	}
}

// Active reports whether the slice is currently processing.
func (s *Slice) Active() bool { return s.active }

// ActiveTime returns the cumulative processing time up to now ("MIG
// time" for this slice).
func (s *Slice) ActiveTime(now float64) float64 {
	t := s.activeTotal
	if s.active {
		t += now - s.activeSince
	}
	return t
}

// OccupiedTime returns the cumulative time the slice has been allocated.
func (s *Slice) OccupiedTime(now float64) float64 {
	t := s.occupiedTotal
	if s.Owner != "" {
		t += now - s.occupiedSince
	}
	return t
}

// GPU is one physical accelerator partitioned into MIG slices. The
// partition is fixed at construction.
type GPU struct {
	ID     int
	Node   int // owning node index
	config Config
	Slices []*Slice

	// Union-of-activity accounting for "GPU time".
	activeSlices int
	unionSince   float64
	unionTotal   float64

	// unhealthy marks a failed GPU (driver wedge, XID error): none of
	// its slices can be allocated until it recovers.
	unhealthy bool

	// gen counts free-set-changing events (slice allocate/release,
	// health and quarantine flips), so callers can cache FreeSlices
	// views and revalidate in O(1) instead of re-walking slices.
	gen uint64
	// shared, when set, is a counter the GPU advances with gen; every
	// GPU of a cluster shares one (see ShareGen).
	shared *uint64
}

// bumpGen records a possible free-set change.
func (g *GPU) bumpGen() {
	g.gen++
	if g.shared != nil {
		*g.shared++
	}
}

// ShareGen makes the GPU advance c on every change that advances its
// own generation, so one counter covers the free sets of many GPUs.
func (g *GPU) ShareGen(c *uint64) { g.shared = c }

// Gen returns the GPU's free-set generation: it changes whenever the
// set of free slices may have changed.
func (g *GPU) Gen() uint64 { return g.gen }

// NewGPU creates a GPU partitioned per cfg. Invalid configs panic.
func NewGPU(node, id int, cfg Config) *GPU {
	if !cfg.Valid() {
		panic(fmt.Sprintf("mig: invalid config %v for gpu %d", cfg, id))
	}
	g := &GPU{ID: id, Node: node, config: cfg.Canonical()}
	for i, t := range g.config {
		g.Slices = append(g.Slices, &Slice{
			Type: t, GPU: g, Index: i,
			id: fmt.Sprintf("gpu%d/%s#%d", g.ID, t, i),
		})
	}
	return g
}

// Config returns the GPU's partition.
func (g *GPU) Config() Config { return g.config }

// Healthy reports whether the GPU is fault-free.
func (g *GPU) Healthy() bool { return !g.unhealthy }

// SetHealthy marks the GPU failed (false) or recovered (true). Slice
// health is tracked separately, so a slice that faulted on its own
// stays down when its GPU recovers.
func (g *GPU) SetHealthy(h bool) {
	g.unhealthy = !h
	g.bumpGen()
}

func (g *GPU) sliceActivated(now float64) {
	if g.activeSlices == 0 {
		g.unionSince = now
	}
	g.activeSlices++
}

func (g *GPU) sliceDeactivated(now float64) {
	g.activeSlices--
	if g.activeSlices < 0 {
		panic("mig: negative active slice count")
	}
	if g.activeSlices == 0 {
		g.unionTotal += now - g.unionSince
	}
}

// ActiveTime returns the cumulative time any slice of the GPU was
// processing ("GPU time": the whole GPU counts as active even if only one
// slice is used, §6).
func (g *GPU) ActiveTime(now float64) float64 {
	t := g.unionTotal
	if g.activeSlices > 0 {
		t += now - g.unionSince
	}
	return t
}

// MIGTime returns the summed per-slice active time.
func (g *GPU) MIGTime(now float64) float64 {
	t := 0.0
	for _, s := range g.Slices {
		t += s.ActiveTime(now)
	}
	return t
}

// FreeSlices returns the unallocated healthy slices, largest first.
// Failed hardware never appears in placement views.
func (g *GPU) FreeSlices() []*Slice {
	if g.unhealthy {
		return nil
	}
	var out []*Slice
	for _, s := range g.Slices {
		if s.Placeable() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type > out[j].Type
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// FreeGPCs returns the total compute of free slices.
func (g *GPU) FreeGPCs() int {
	n := 0
	for _, s := range g.Slices {
		if s.Placeable() {
			n += s.Type.GPCs()
		}
	}
	return n
}

// ActiveGPCs returns the compute of slices currently processing.
func (g *GPU) ActiveGPCs() int {
	n := 0
	for _, s := range g.Slices {
		if s.active {
			n += s.Type.GPCs()
		}
	}
	return n
}

// OccupiedGPCs returns the compute of allocated slices.
func (g *GPU) OccupiedGPCs() int {
	n := 0
	for _, s := range g.Slices {
		if !s.Free() {
			n += s.Type.GPCs()
		}
	}
	return n
}
