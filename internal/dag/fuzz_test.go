package dag

import (
	"testing"

	"fluidfaas/internal/mig"
)

// fuzzDAG builds a DAG from bytes: data[0] picks the node count (1..80),
// data[1]'s low bit chains the nodes in ID order and its next bit drops
// node 0's reference profile, and each later byte pair (u, v) adds the
// edge u -> v (self edges skipped; cycles are left for Validate).
func fuzzDAG(data []byte) *DAG {
	d := New()
	if len(data) < 2 {
		return d
	}
	n := 1 + int(data[0])%80
	chain, noRef := data[1]&1 != 0, data[1]&2 != 0
	for i := 0; i < n; i++ {
		exec := map[mig.SliceType]float64{mig.Slice1g: 1}
		if i != 0 || !noRef {
			exec[mig.Slice7g] = float64(1+i%5) / 1000
		}
		d.AddNode(Node{Name: "n", MemGB: 1, OutMB: 1, Exec: exec})
		if chain && i > 0 {
			d.AddEdge(NodeID(i-1), NodeID(i))
		}
	}
	for rest := data[2:]; len(rest) >= 2; rest = rest[2:] {
		u, v := NodeID(int(rest[0])%n), NodeID(int(rest[1])%n)
		if u != v {
			d.AddEdge(u, v)
		}
	}
	return d
}

// FuzzEnumeratePartitions: on any DAG that validates, enumeration never
// panics, errors exactly when the segment count is over MaxSegments, and
// otherwise returns the 2^(m-1) partitions (none when a node cannot run
// on the reference profile), each covering every node exactly once in a
// topological order.
func FuzzEnumeratePartitions(f *testing.F) {
	f.Add([]byte{2, 1})                               // 3-node chain
	f.Add([]byte{4, 0, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4}) // diamond then tail
	f.Add([]byte{15, 1})                              // chain at the cap
	f.Add([]byte{16, 1})                              // one segment over the cap
	f.Add([]byte{63, 1})                              // 64 segments: 1<<63 is negative
	f.Add([]byte{64, 1})                              // 65 segments: 1<<64 is 0
	f.Add([]byte{5, 3})                               // chain without the reference profile
	f.Add([]byte{3, 0, 0, 1, 1, 0})                   // cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDAG(data)
		if d.Validate() != nil {
			return
		}
		segs, err := d.Linearize()
		if err != nil {
			t.Fatalf("Linearize failed on a valid DAG: %v", err)
		}
		parts, err := d.EnumeratePartitions(mig.Slice7g)
		if over := len(segs) > MaxSegments; (err != nil) != over {
			t.Fatalf("%d segments: err = %v", len(segs), err)
		}
		if err != nil {
			return
		}
		want := 1 << (len(segs) - 1)
		if _, ok := d.Node(0).ExecOn(mig.Slice7g); !ok {
			want = 0
		}
		if len(parts) != want {
			t.Fatalf("%d segments: %d partitions, want %d", len(segs), len(parts), want)
		}
		for _, p := range parts {
			pos := make(map[NodeID]int, d.Len())
			for _, st := range p.Stages {
				if len(st.Nodes) == 0 {
					t.Fatal("empty stage")
				}
				for _, n := range st.Nodes {
					if _, dup := pos[n]; dup {
						t.Fatalf("node %d appears twice", n)
					}
					pos[n] = len(pos)
				}
			}
			if len(pos) != d.Len() {
				t.Fatalf("partition covers %d of %d nodes", len(pos), d.Len())
			}
			for u := 0; u < d.Len(); u++ {
				for _, v := range d.Succ(NodeID(u)) {
					if pos[v] < pos[NodeID(u)] {
						t.Fatalf("edge %d->%d runs against the partition's order", u, v)
					}
				}
			}
		}
	})
}
