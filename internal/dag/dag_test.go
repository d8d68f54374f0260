package dag

import (
	"testing"

	"fluidfaas/internal/mig"
)

// chain builds a linear DAG of n nodes with the given exec times on 7g
// (scaled by (7/g)^0.5 for smaller slices) and 5 GB memory each.
func chain(times ...float64) *DAG {
	d := New()
	var prev NodeID = -1
	for i, t := range times {
		exec := map[mig.SliceType]float64{}
		for _, st := range mig.SliceTypes {
			exec[st] = t * sqrtScale(st)
		}
		id := d.AddNode(Node{Name: nodeName(i), MemGB: 5, Exec: exec})
		if prev >= 0 {
			d.AddEdge(prev, id)
		}
		prev = id
	}
	return d
}

func sqrtScale(st mig.SliceType) float64 {
	switch st {
	case mig.Slice1g:
		return 2.6458 // sqrt(7)
	case mig.Slice2g:
		return 1.8708 // sqrt(3.5)
	case mig.Slice3g:
		return 1.5275
	case mig.Slice4g:
		return 1.3229
	default:
		return 1
	}
}

func nodeName(i int) string { return string(rune('A' + i)) }

// fig7DAG reproduces the example of paper Fig. 7:
// m1(x), m2(x) in parallel -> m3(m1,m2) -> m4 -> m5.
func fig7DAG() *DAG {
	d := New()
	exec := func(t float64) map[mig.SliceType]float64 {
		m := map[mig.SliceType]float64{}
		for _, st := range mig.SliceTypes {
			m[st] = t
		}
		return m
	}
	m1 := d.AddNode(Node{Name: "m1", MemGB: 4, Exec: exec(0.1)})
	m2 := d.AddNode(Node{Name: "m2", MemGB: 4, Exec: exec(0.2)})
	m3 := d.AddNode(Node{Name: "m3", MemGB: 4, Exec: exec(0.3)})
	m4 := d.AddNode(Node{Name: "m4", MemGB: 4, Exec: exec(0.3)})
	m5 := d.AddNode(Node{Name: "m5", MemGB: 4, Exec: exec(0.3)})
	d.AddEdge(m1, m3)
	d.AddEdge(m2, m3)
	d.AddEdge(m3, m4)
	d.AddEdge(m4, m5)
	return d
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty DAG validated")
	}
	d := chain(1, 2, 3)
	if err := d.Validate(); err != nil {
		t.Errorf("chain failed validation: %v", err)
	}
	// Introduce a cycle.
	d.AddEdge(NodeID(2), NodeID(0))
	if err := d.Validate(); err == nil {
		t.Error("cyclic graph validated")
	}
}

func TestAddEdgePanics(t *testing.T) {
	d := chain(1, 2)
	for _, f := range []func(){
		func() { d.AddEdge(0, 0) },
		func() { d.AddEdge(0, 99) },
		func() { d.AddEdge(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad AddEdge did not panic")
				}
			}()
			f()
		}()
	}
}

func TestTopoSortChain(t *testing.T) {
	d := chain(1, 2, 3, 4)
	order, err := d.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if int(id) != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTotals(t *testing.T) {
	d := chain(0.1, 0.2, 0.3)
	if got := d.TotalMemGB(); got != 15 {
		t.Errorf("TotalMemGB = %v, want 15", got)
	}
}

func TestDominatorsChain(t *testing.T) {
	d := chain(1, 1, 1)
	dom, err := d.Dominators()
	if err != nil {
		t.Fatal(err)
	}
	// In a chain, node i is dominated by all of 0..i.
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			if !dom[NodeID(i)][NodeID(j)] {
				t.Errorf("node %d should be dominated by %d", i, j)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// A -> B -> D, A -> C -> D: neither B nor C dominates D.
	d := New()
	exec := map[mig.SliceType]float64{mig.Slice7g: 1}
	a := d.AddNode(Node{Name: "A", Exec: exec})
	b := d.AddNode(Node{Name: "B", Exec: exec})
	c := d.AddNode(Node{Name: "C", Exec: exec})
	dd := d.AddNode(Node{Name: "D", Exec: exec})
	d.AddEdge(a, b)
	d.AddEdge(a, c)
	d.AddEdge(b, dd)
	d.AddEdge(c, dd)
	dom, err := d.Dominators()
	if err != nil {
		t.Fatal(err)
	}
	if dom[dd][b] || dom[dd][c] {
		t.Error("branch nodes must not dominate the join")
	}
	if !dom[dd][a] || !dom[dd][dd] {
		t.Error("A and D must dominate D")
	}
}

func TestLinearizeChain(t *testing.T) {
	d := chain(1, 1, 1, 1, 1)
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("chain of 5 linearized to %d segments, want 5", len(segs))
	}
	for i, s := range segs {
		if len(s.Nodes) != 1 || int(s.Nodes[0]) != i {
			t.Errorf("segment %d = %v", i, s.Nodes)
		}
	}
}

func TestLinearizeFig7(t *testing.T) {
	d := fig7DAG()
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	// Expect [{m1,m2}, {m3}, {m4}, {m5}]: the entry fork collapses into
	// one segment.
	if len(segs) != 4 {
		t.Fatalf("fig7 linearized to %d segments, want 4: %v", len(segs), segs)
	}
	if len(segs[0].Nodes) != 2 {
		t.Errorf("first segment = %v, want the m1,m2 fork", segs[0].Nodes)
	}
	for i := 1; i < 4; i++ {
		if len(segs[i].Nodes) != 1 {
			t.Errorf("segment %d = %v, want single node", i, segs[i].Nodes)
		}
	}
}

func TestLinearizeBranchRegion(t *testing.T) {
	// App 3 shape: A -> (B or skip) -> C: edges A->B, B->C, A->C.
	d := New()
	exec := map[mig.SliceType]float64{mig.Slice7g: 1}
	a := d.AddNode(Node{Name: "A", Exec: exec})
	b := d.AddNode(Node{Name: "B", Exec: exec})
	c := d.AddNode(Node{Name: "C", Exec: exec})
	d.AddEdge(a, b)
	d.AddEdge(b, c)
	d.AddEdge(a, c)
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	// B is optional, so it belongs to A's segment: [{A,B}, {C}].
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want 2", segs)
	}
	if len(segs[0].Nodes) != 2 {
		t.Errorf("first segment = %v, want {A,B}", segs[0].Nodes)
	}
}

func TestCV(t *testing.T) {
	if got := CV(nil); got != 0 {
		t.Errorf("CV(nil) = %v", got)
	}
	if got := CV([]float64{5}); got != 0 {
		t.Errorf("CV of single = %v, want 0", got)
	}
	if got := CV([]float64{2, 2, 2}); got != 0 {
		t.Errorf("CV of equal = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
	// mean 3, std sqrt(((1-3)^2+(5-3)^2)/2)=2 -> CV 2/3.
	got := CV([]float64{1, 5})
	if got < 0.666 || got > 0.667 {
		t.Errorf("CV([1,5]) = %v, want 2/3", got)
	}
}

func TestEnumeratePartitionsCount(t *testing.T) {
	d := chain(1, 1, 1, 1, 1)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 16 { // 2^(5-1), §5.2.2's example
		t.Fatalf("partitions = %d, want 16", len(parts))
	}
}

func TestEnumeratePartitionsRankedByCV(t *testing.T) {
	d := chain(1, 1, 2)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].CV < parts[i-1].CV {
			t.Fatalf("partitions not sorted by CV: %v then %v", parts[i-1].CV, parts[i].CV)
		}
	}
	// Best balanced 2-stage split of [1,1,2] is [[1,1],[2]]: CV 0.
	best := parts[0]
	if best.CV != 0 {
		t.Fatalf("best CV = %v, want 0", best.CV)
	}
	// Ties on CV=0 break by fewer stages: monolithic [1,1,2] first.
	if len(best.Stages) != 1 {
		t.Errorf("best partition has %d stages, want 1 (monolithic, CV 0)", len(best.Stages))
	}
	if len(parts[1].Stages) != 2 {
		t.Errorf("second partition has %d stages, want 2 ([[1,1],[2]])", len(parts[1].Stages))
	}
}

func TestStageExecAndMem(t *testing.T) {
	d := chain(0.1, 0.2)
	st := Stage{Nodes: []NodeID{0, 1}}
	if got := st.MemGB(d); got != 10 {
		t.Errorf("Stage.MemGB = %v, want 10", got)
	}
	got, ok := st.ExecOn(d, mig.Slice7g)
	if !ok || got < 0.299 || got > 0.301 {
		t.Errorf("Stage.ExecOn(7g) = %v, %v", got, ok)
	}
}

func TestMonolithicPartition(t *testing.T) {
	d := fig7DAG()
	p, err := d.MonolithicPartition()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 1 || len(p.Stages[0].Nodes) != 5 {
		t.Errorf("monolithic partition = %+v", p)
	}
}

func TestEnumeratePartitionsSkipsInfeasibleRef(t *testing.T) {
	// One node lacks a 1g profile; enumeration on 1g must drop all
	// partitions containing it (i.e. all), returning none.
	d := New()
	d.AddNode(Node{Name: "big", MemGB: 30,
		Exec: map[mig.SliceType]float64{mig.Slice7g: 1, mig.Slice4g: 1.5}})
	parts, err := d.EnumeratePartitions(mig.Slice1g)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Errorf("expected no feasible partitions on 1g, got %d", len(parts))
	}
}

// Property: every enumerated partition covers each node exactly once and
// preserves topological order across stages.
func TestPartitionCoverageProperty(t *testing.T) {
	for _, d := range []*DAG{chain(1, 2, 3, 4), fig7DAG()} {
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			seen := make(map[NodeID]int)
			lastStage := make(map[NodeID]int)
			for si, st := range p.Stages {
				for _, n := range st.Nodes {
					seen[n]++
					lastStage[n] = si
				}
			}
			if len(seen) != d.Len() {
				t.Fatalf("partition covers %d nodes, want %d", len(seen), d.Len())
			}
			for n, c := range seen {
				if c != 1 {
					t.Fatalf("node %d appears %d times", n, c)
				}
			}
			// Edges must never go backwards across stages.
			for u := 0; u < d.Len(); u++ {
				for _, v := range d.Succ(NodeID(u)) {
					if lastStage[v] < lastStage[NodeID(u)] {
						t.Fatalf("edge %d->%d goes backwards across stages", u, v)
					}
				}
			}
		}
	}
}
