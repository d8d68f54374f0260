package pipeline

import (
	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// Counts is a free-slice multiset: how many slices of each profile are
// available. The construction procedure's output — which partition wins
// and which slice profile each stage binds to — is a pure function of
// this multiset (plus the SLO), which is what makes plan caching sound:
// the concrete slice indices only affect which physical slice of a given
// profile a stage lands on, and that tie-break is replayed per caller.
type Counts [mig.NumSliceTypes]int

// CountsOf tallies the multiset of a concrete free-slice view.
func CountsOf(avail []mig.SliceType) Counts {
	var c Counts
	for _, t := range avail {
		c[t]++
	}
	return c
}

// sigBits is the width of each per-type count in a Signature; counts at
// or above 1<<sigBits cannot be canonicalized and fall back to the
// uncached path.
const sigBits = 12

// Signature packs the multiset into a canonical uint64 key: sigBits bits
// per slice type, smallest profile in the low bits. Two free-slice views
// have equal signatures iff they are the same multiset, regardless of
// index order. ok is false when any count overflows sigBits bits
// (≥ 4096 free slices of one profile on a node — far beyond any real
// MIG inventory); callers then skip the cache rather than corrupt it.
func (c Counts) Signature() (uint64, bool) {
	var sig uint64
	for i, v := range c {
		if uint(v) >= 1<<sigBits { // also rejects v < 0
			return 0, false
		}
		sig |= uint64(v) << (sigBits * i)
	}
	return sig, true
}

// PlanResult is one memoized construction outcome for a multiset under
// the planner's SLO.
type PlanResult struct {
	// Err is nil on success, ErrNoFit when no partition fit.
	Err error
	// Rank is the index into the partition list of the chosen
	// partition (-1 on Err). Cross-node comparisons order by Rank
	// first to preserve the §5.2.2 walk-order semantics.
	Rank int
	// Plan is the constructed plan. It is shared by reference across
	// cache hits and must be treated as immutable.
	Plan Plan
	// StageTypes is the slice profile each stage bound to, aligned
	// with Plan.Stages.
	StageTypes []mig.SliceType
	// Order is the binding order (stage indices, most memory-hungry
	// first) the construction used. Replaying index binding in this
	// order, taking per profile the first free index in view order,
	// reproduces ConstructRanked's assignment exactly.
	Order []int
}

// PlannerStats counts cache behaviour for benchmarks and reports.
type PlannerStats struct {
	// Hits served a construction from the cache without walking the
	// partition list.
	Hits uint64
	// Misses ran the full walk and cached the result.
	Misses uint64
	// Uncached ran the full walk without caching (signature
	// overflow).
	Uncached uint64
}

// Walks returns how many full partition-list walks ran.
func (s PlannerStats) Walks() uint64 { return s.Misses + s.Uncached }

// Lookups returns the total number of construction requests.
func (s PlannerStats) Lookups() uint64 { return s.Hits + s.Walks() }

// HitRate returns the fraction of lookups served from the cache.
func (s PlannerStats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Add accumulates o into s (for aggregating per-function planners).
func (s *PlannerStats) Add(o PlannerStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Uncached += o.Uncached
}

// Planner memoizes the §5.2.2 construction procedure for one function
// (one DAG + ranked partition list) under one latency budget. It is not
// safe for concurrent use; the platform's event loop is single-threaded.
type Planner struct {
	d     *dag.DAG
	parts []dag.Partition
	slo   float64
	cache map[uint64]*PlanResult
	// last is the most recent signature's answer. A placement round
	// probes every node, and unchanged nodes share one multiset, so
	// nearly every lookup repeats the one before it and skips the map.
	lastSig uint64
	last    *PlanResult
	stats   PlannerStats
	// mono is the function's monolithic table, built on first Mono().
	mono *MonoTable
	// observer, when set, sees every Result lookup (decision
	// provenance). Nil costs nothing; the observer must not call back
	// into the planner.
	observer func(PlanObservation)
}

// PlanObservation describes one Result lookup for provenance: how the
// cache answered and what the construction concluded.
type PlanObservation struct {
	// Cached reports a cache hit; SigOK is false when the multiset
	// overflowed the signature and bypassed the cache entirely.
	Cached bool
	SigOK  bool
	// Sig is the multiset signature (0 on overflow), SLO the planner's
	// latency budget.
	Sig uint64
	SLO float64
	// Rank is the chosen partition's CV rank (-1 when construction
	// failed) and Err the construction error, nil on success.
	Rank int
	Err  error
}

// SetObserver installs fn as the lookup observer (nil removes it).
func (p *Planner) SetObserver(fn func(PlanObservation)) { p.observer = fn }

// NewPlanner returns an empty plan cache for the DAG's ranked
// partition list under latency budget slo (slo ≤ 0 means unconstrained).
func NewPlanner(d *dag.DAG, parts []dag.Partition, slo float64) *Planner {
	return &Planner{d: d, parts: parts, slo: slo, cache: make(map[uint64]*PlanResult)}
}

// SLO returns the latency budget every construction is made under.
func (p *Planner) SLO() float64 { return p.slo }

// Stats returns a copy of the accumulated cache statistics.
func (p *Planner) Stats() PlannerStats { return p.stats }

// Mono returns the function's monolithic table, building it on first
// use. Every caller gets the same table.
func (p *Planner) Mono() *MonoTable {
	if p.mono == nil {
		p.mono = NewMonoTable(p.d)
	}
	return p.mono
}

// Result returns the memoized construction outcome for the free-slice
// multiset c. avail materializes the concrete free-slice view and is
// only invoked on a cache miss (or signature overflow); the view it
// returns must have exactly the multiset c.
//
// No explicit invalidation exists or is needed: the key is the free
// state itself, so any allocation, release, or health change that
// changes the free multiset selects a different cache line. Stale
// entries for multisets that no longer occur are merely unused.
func (p *Planner) Result(c Counts, avail func() []mig.SliceType) *PlanResult {
	sig, ok := c.Signature()
	if !ok {
		p.stats.Uncached++
		res := p.walk(avail())
		p.observe(false, false, 0, res)
		return res
	}
	res, cached := p.last, p.last != nil && sig == p.lastSig
	if !cached {
		if res, cached = p.cache[sig]; !cached {
			p.stats.Misses++
			res = p.walk(avail())
			p.cache[sig] = res
		}
		p.lastSig, p.last = sig, res
	}
	if cached {
		p.stats.Hits++
	}
	p.observe(cached, true, sig, res)
	return res
}

// observe reports one lookup to the observer, if any.
func (p *Planner) observe(cached, sigOK bool, sig uint64, res *PlanResult) {
	if p.observer != nil {
		p.observer(PlanObservation{Cached: cached, SigOK: sigOK, Sig: sig, SLO: p.slo, Rank: res.Rank, Err: res.Err})
	}
}

// BindIndices replays the index binding of a successful result against
// a concrete free-slice view with the result's multiset: stages bind in
// the recorded order, each taking the first unused index of its profile
// in view order — exactly the tie-break ConstructRanked's assignment uses.
// used, when non-nil, marks view entries already consumed by earlier
// placements and is skipped, not mutated; within one call each index is
// taken at most once via per-profile cursors.
func (res *PlanResult) BindIndices(avail []mig.SliceType, used []bool) []int {
	idx := make([]int, len(res.StageTypes))
	next := [mig.NumSliceTypes]int{}
	for _, stage := range res.Order {
		t := res.StageTypes[stage]
		ai := next[t]
		for ai < len(avail) && (avail[ai] != t || (used != nil && used[ai])) {
			ai++
		}
		if ai == len(avail) {
			panic("pipeline: plan result binding exceeds free view")
		}
		next[t] = ai + 1
		idx[stage] = ai
	}
	return idx
}

// walk runs the §5.2.2 walk (ConstructRanked) and packages the outcome
// for caching.
func (p *Planner) walk(avail []mig.SliceType) *PlanResult {
	plan, idx, rank, err := ConstructRanked(p.d, p.parts, avail, p.slo)
	if err != nil {
		return &PlanResult{Err: err, Rank: -1}
	}
	types := make([]mig.SliceType, len(idx))
	for i, ai := range idx {
		types[i] = avail[ai]
	}
	return &PlanResult{Rank: rank, Plan: plan, StageTypes: types, Order: needOrder(p.d, p.parts[rank])}
}
