package obs

import "testing"

// TestRingWraparound: the ring retains only the newest Capacity values,
// snapshots come out oldest-first, and the dropped counter reports
// exactly what was overwritten.
func TestRingWraparound(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 20; i++ {
		r.Push(i)
	}
	if r.Total() != 20 {
		t.Errorf("Total = %d, want 20", r.Total())
	}
	if r.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(snap))
	}
	for i, v := range snap {
		if v != 12+i {
			t.Fatalf("snapshot[%d] = %d, want %d", i, v, 12+i)
		}
	}
}

// TestRingUnderCapacity: before wrapping, nothing is dropped and the
// snapshot holds everything in push order.
func TestRingUnderCapacity(t *testing.T) {
	r := NewRing[string](4)
	r.Push("a")
	r.Push("b")
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0] != "a" || snap[1] != "b" {
		t.Errorf("snapshot = %v, want [a b]", snap)
	}
}

// TestRingExactCapacity: filling the ring exactly drops nothing; one
// more push drops one.
func TestRingExactCapacity(t *testing.T) {
	r := NewRing[int](3)
	for i := 0; i < 3; i++ {
		r.Push(i)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped at exact capacity = %d, want 0", r.Dropped())
	}
	r.Push(3)
	if r.Dropped() != 1 {
		t.Errorf("Dropped after one overwrite = %d, want 1", r.Dropped())
	}
	snap := r.Snapshot()
	if snap[0] != 1 || snap[2] != 3 {
		t.Errorf("snapshot = %v, want [1 2 3]", snap)
	}
}

// TestRingDefaultCapacity: non-positive capacities fall back to the
// default: the ring keeps the newest DefaultRingCapacity values.
func TestRingDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		r := NewRing[int](capacity)
		for i := 0; i <= DefaultRingCapacity; i++ {
			r.Push(i)
		}
		if n, d := len(r.Snapshot()), r.Dropped(); n != DefaultRingCapacity || d != 1 {
			t.Errorf("NewRing(%d): retained %d, dropped %d, want %d and 1", capacity, n, d, DefaultRingCapacity)
		}
	}
}
