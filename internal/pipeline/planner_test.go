package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// randomHoleyChain is randomChain with feasibility holes: some nodes
// lose their exec profile on a mid-sized slice even though memory fits,
// so per-stage feasibility sets are not upward-closed in compute order.
func randomHoleyChain(raw []byte) *dag.DAG {
	n := len(raw)/2 + 1
	if n > 6 {
		n = 6
	}
	d := dag.New()
	var prev dag.NodeID = -1
	for i := 0; i < n; i++ {
		memB, timeB := byte(3), byte(7)
		if 2*i < len(raw) {
			memB = raw[2*i]
		}
		if 2*i+1 < len(raw) {
			timeB = raw[2*i+1]
		}
		mem := float64(memB%15) + 1
		base := (float64(timeB)*10 + 10) / 1000
		exec := map[mig.SliceType]float64{}
		for _, t := range mig.SliceTypes {
			if mem > float64(t.MemGB()) {
				continue
			}
			exec[t] = base * math.Sqrt(7/float64(t.GPCs()))
		}
		// Punch a hole: drop a feasible middle profile so the stage's
		// feasibility set has a gap in compute order.
		if timeB%3 == 0 {
			delete(exec, mig.SliceType(int(timeB/3)%mig.NumSliceTypes))
		}
		id := d.AddNode(dag.Node{Name: "n", MemGB: mem, OutMB: float64(memB%40) + 1, Exec: exec})
		if prev >= 0 {
			d.AddEdge(prev, id)
		}
		prev = id
	}
	return d
}

// TestPlannerMatchesConstructProperty: the memoized planner's result,
// bound to the view, is extensionally equal to ConstructRanked — same plan, same slice
// indices, same partition rank, same error — over random DAGs (with
// non-monotone feasibility holes), random free-slice multisets and
// SLOs, including after simulated alloc/release churn of the free pool.
func TestPlannerMatchesConstructProperty(t *testing.T) {
	menu := mig.SliceTypes
	f := func(raw []byte, freeRaw []byte, sloRaw uint8) bool {
		d := randomHoleyChain(raw)
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			return true // unrunnable reference profile: nothing to compare
		}
		slo := 0.0
		if sloRaw%2 == 0 {
			slo = float64(sloRaw)/64 + 0.05
		}
		pl := NewPlanner(d, parts, slo)
		rng := rand.New(rand.NewSource(int64(len(raw))*131 + int64(len(freeRaw))))
		free := make([]mig.SliceType, 0, 8)
		for i := 0; i < len(freeRaw)%8; i++ {
			free = append(free, menu[int(freeRaw[i])%len(menu)])
		}
		check := func(avail []mig.SliceType) bool {
			res := pl.Result(CountsOf(avail), func() []mig.SliceType { return avail })
			bp, bi, br, be := ConstructRanked(d, parts, avail, slo)
			if res.Err != be {
				return false
			}
			if be != nil {
				return true
			}
			return reflect.DeepEqual(res.Plan, bp) &&
				reflect.DeepEqual(res.BindIndices(avail, nil), bi) && res.Rank == br
		}
		// Churn loop: allocate (drop) and release (add) slices, and
		// permute index order, re-comparing after every mutation. Each
		// multiset revisited must serve from the cache yet stay equal.
		for round := 0; round < 12; round++ {
			if !check(free) {
				return false
			}
			if !check(free) { // immediate revisit: guaranteed cache hit
				return false
			}
			switch rng.Intn(3) {
			case 0: // simulated allocation
				if len(free) > 0 {
					i := rng.Intn(len(free))
					free = append(free[:i], free[i+1:]...)
				}
			case 1: // simulated release
				free = append(free, menu[rng.Intn(len(menu))])
			default: // same multiset, different index order
				rng.Shuffle(len(free), func(i, j int) {
					free[i], free[j] = free[j], free[i]
				})
			}
		}
		// 12 rounds × 2 checks with immediate revisits: at least half
		// the lookups must have hit the cache.
		return pl.Stats().Hits >= pl.Stats().Lookups()/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCountsSignatureCanonicalization: the multiset signature is
// order-independent, injective across distinct multisets within the
// packing bound, and refuses to canonicalize overflowing counts.
func TestCountsSignatureCanonicalization(t *testing.T) {
	perms := [][]mig.SliceType{
		{mig.Slice1g, mig.Slice2g, mig.Slice1g, mig.Slice7g},
		{mig.Slice7g, mig.Slice1g, mig.Slice2g, mig.Slice1g},
		{mig.Slice2g, mig.Slice7g, mig.Slice1g, mig.Slice1g},
	}
	want, ok := CountsOf(perms[0]).Signature()
	if !ok {
		t.Fatal("signature overflow on a 4-slice view")
	}
	for _, p := range perms {
		got, ok := CountsOf(p).Signature()
		if !ok || got != want {
			t.Errorf("permuted view %v: signature %#x ok=%v, want %#x", p, got, ok, want)
		}
	}

	distinct := [][]mig.SliceType{
		{},
		{mig.Slice1g},
		{mig.Slice2g},
		{mig.Slice1g, mig.Slice1g},
		{mig.Slice1g, mig.Slice2g},
		{mig.Slice2g, mig.Slice2g},
		{mig.Slice7g},
		{mig.Slice3g, mig.Slice4g},
		{mig.Slice4g, mig.Slice4g},
	}
	seen := map[uint64][]mig.SliceType{}
	for _, v := range distinct {
		sig, ok := CountsOf(v).Signature()
		if !ok {
			t.Fatalf("overflow on %v", v)
		}
		if prev, dup := seen[sig]; dup {
			t.Errorf("multisets %v and %v collide on %#x", prev, v, sig)
		}
		seen[sig] = v
	}

	var big Counts
	big[mig.Slice1g] = 1 << sigBits // 4096: one past the packing bound
	if _, ok := big.Signature(); ok {
		t.Error("overflowing count canonicalized; cache keys would collide")
	}
	big[mig.Slice1g] = 1<<sigBits - 1
	if _, ok := big.Signature(); !ok {
		t.Error("count at the packing bound should canonicalize")
	}
}

// TestPlannerNegativeCaching: a no-fit outcome is memoized too — the
// second identical query must not re-walk the partition list.
func TestPlannerNegativeCaching(t *testing.T) {
	d := dag.New()
	d.AddNode(dag.Node{Name: "big", MemGB: 60,
		Exec: map[mig.SliceType]float64{mig.Slice7g: 0.2}})
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, parts, 0)
	avail := []mig.SliceType{mig.Slice1g, mig.Slice2g}
	for i := 0; i < 3; i++ {
		if err := pl.Result(CountsOf(avail), func() []mig.SliceType { return avail }).Err; err != ErrNoFit {
			t.Fatalf("query %d: err = %v, want ErrNoFit", i, err)
		}
	}
	st := pl.Stats()
	if st.Walks() != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v: want exactly 1 walk and 2 hits for 3 identical no-fit queries", st)
	}
}

// TestAssignTieBreakComputeOrder (satellite bugfix): "smallest fitting
// slice" must mean fewest GPCs then least memory — an explicit compute
// comparison — not the raw SliceType enum value, so correctness cannot
// silently depend on declaration order.
func TestAssignTieBreakComputeOrder(t *testing.T) {
	// The comparator itself must realise (GPCs, MemGB, enum) lexicographic
	// order for every pair, whatever the enum values happen to be.
	for _, a := range mig.SliceTypes {
		for _, b := range mig.SliceTypes {
			want := false
			switch {
			case a.GPCs() != b.GPCs():
				want = a.GPCs() < b.GPCs()
			case a.MemGB() != b.MemGB():
				want = a.MemGB() < b.MemGB()
			default:
				want = a < b
			}
			if got := mig.LessCompute(a, b); got != want {
				t.Errorf("LessCompute(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}

	// A single-stage function runnable everywhere: construction over a
	// free list presented in every permutation of {4g, 3g} must pick the
	// 3g — same memory, fewer GPCs — regardless of scan order.
	d := dag.New()
	d.AddNode(dag.Node{Name: "n", MemGB: 35, Exec: map[mig.SliceType]float64{
		mig.Slice3g: 0.1, mig.Slice4g: 0.1, mig.Slice7g: 0.1}})
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	for _, avail := range [][]mig.SliceType{
		{mig.Slice3g, mig.Slice4g},
		{mig.Slice4g, mig.Slice3g},
		{mig.Slice7g, mig.Slice4g, mig.Slice3g},
	} {
		plan, idx, err := Construct(d, parts, avail, 0)
		if err != nil {
			t.Fatalf("no fit over %v: %v", avail, err)
		}
		if got := plan.Stages[0].SliceType; got != mig.Slice3g {
			t.Errorf("over %v chose %v, want 3g.40gb (fewest GPCs at equal memory)", avail, got)
		}
		if avail[idx[0]] != plan.Stages[0].SliceType {
			t.Errorf("over %v: index %d does not match the chosen type", avail, idx[0])
		}
	}
}

// TestPlannerBindIndicesSkipsConsumed: replaying a cached binding
// against a partially consumed view takes the first unconsumed index of
// each profile, matching the uncached tie-break.
func TestPlannerBindIndicesSkipsConsumed(t *testing.T) {
	res := &PlanResult{
		StageTypes: []mig.SliceType{mig.Slice2g, mig.Slice1g},
		Order:      []int{0, 1},
	}
	view := []mig.SliceType{mig.Slice2g, mig.Slice1g, mig.Slice2g, mig.Slice1g}
	used := []bool{true, false, false, false} // first 2g already taken
	idx := res.BindIndices(view, used)
	if idx[0] != 2 || idx[1] != 1 {
		t.Errorf("bound indices %v, want [2 1]", idx)
	}
}

// TestPlannerObserver: the lookup observer fires once per Result call
// and correctly distinguishes a constructing miss, a cache hit, and a
// signature-overflow bypass — the provenance layer's raw signal.
func TestPlannerObserver(t *testing.T) {
	d := dag.New()
	d.AddNode(dag.Node{Name: "n", MemGB: 8,
		Exec: map[mig.SliceType]float64{mig.Slice2g: 0.1, mig.Slice7g: 0.05}})
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, parts, 0)
	var obs []PlanObservation
	pl.SetObserver(func(o PlanObservation) { obs = append(obs, o) })

	avail := []mig.SliceType{mig.Slice2g, mig.Slice2g}
	for i := 0; i < 3; i++ {
		if err := pl.Result(CountsOf(avail), func() []mig.SliceType { return avail }).Err; err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if len(obs) != 3 {
		t.Fatalf("observer fired %d times, want 3", len(obs))
	}
	if obs[0].Cached || !obs[0].SigOK || obs[0].Err != nil {
		t.Errorf("first lookup = %+v, want uncached miss", obs[0])
	}
	for i := 1; i < 3; i++ {
		if !obs[i].Cached || !obs[i].SigOK || obs[i].Sig != obs[0].Sig {
			t.Errorf("lookup %d = %+v, want hit with same signature", i, obs[i])
		}
	}

	// A multiset too large to pack bypasses the cache and reports
	// SigOK=false.
	obs = nil
	big := make([]mig.SliceType, 1<<sigBits)
	for i := range big {
		big[i] = mig.Slice1g
	}
	pl.Result(CountsOf(big), func() []mig.SliceType { return big })
	if len(obs) != 1 || obs[0].SigOK || obs[0].Cached {
		t.Errorf("overflow lookup = %+v, want uncached SigOK=false", obs)
	}

	// Removing the observer stops delivery.
	pl.SetObserver(nil)
	obs = nil
	if err := pl.Result(CountsOf(avail), func() []mig.SliceType { return avail }).Err; err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Error("removed observer still firing")
	}
}

// TestPlannerLastAnswerMemo: the last-answer memo serves a repeated
// multiset without the map, yet never answers a different multiset (or
// an overflowing one) with the previous result, and counts and observes
// each lookup exactly as the map would.
func TestPlannerLastAnswerMemo(t *testing.T) {
	d := dag.New()
	d.AddNode(dag.Node{Name: "n", MemGB: 15,
		Exec: map[mig.SliceType]float64{mig.Slice2g: 0.1, mig.Slice7g: 0.05}})
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(d, parts, 0)
	var obs []PlanObservation
	pl.SetObserver(func(o PlanObservation) { obs = append(obs, o) })
	fit := []mig.SliceType{mig.Slice2g}
	noFit := []mig.SliceType{mig.Slice1g, mig.Slice1g}
	big := make([]mig.SliceType, 1<<sigBits)
	for i := range big {
		big[i] = mig.Slice2g
	}
	script := []struct {
		avail      []mig.SliceType
		ok, cached bool
	}{
		{fit, true, false},
		{fit, true, true},
		{noFit, false, false},
		{fit, true, true},
		{big, true, false}, // overflow: walks, leaves the memo alone
		{fit, true, true},
		{noFit, false, true},
		{noFit, false, true},
	}
	for i, s := range script {
		res := pl.Result(CountsOf(s.avail), func() []mig.SliceType { return s.avail })
		if (res.Err == nil) != s.ok {
			t.Fatalf("lookup %d: err = %v, want ok=%v", i, res.Err, s.ok)
		}
		if obs[i].Cached != s.cached {
			t.Errorf("lookup %d: observed Cached=%v, want %v", i, obs[i].Cached, s.cached)
		}
	}
	if st := pl.Stats(); st != (PlannerStats{Hits: 5, Misses: 2, Uncached: 1}) {
		t.Errorf("stats = %+v, want 5 hits, 2 misses, 1 uncached", st)
	}
}
