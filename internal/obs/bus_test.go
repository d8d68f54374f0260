package obs

import "testing"

// TestBusRingWraparound: the ring retains only the newest Capacity
// values, snapshots come out oldest-first, and the dropped counter
// reports exactly what was overwritten.
func TestBusRingWraparound(t *testing.T) {
	b := NewBus[int](8)
	for i := 0; i < 20; i++ {
		b.Publish(i)
	}
	if b.Total() != 20 {
		t.Errorf("Total = %d, want 20", b.Total())
	}
	if n := len(b.Snapshot()); n != 8 {
		t.Errorf("retained = %d, want 8", n)
	}
	if b.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", b.Dropped())
	}
	snap := b.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot len = %d, want 8", len(snap))
	}
	for i, v := range snap {
		if v != 12+i {
			t.Fatalf("snapshot[%d] = %d, want %d", i, v, 12+i)
		}
	}
}

// TestBusUnderCapacity: before wrapping, nothing is dropped and the
// snapshot holds everything in publish order.
func TestBusUnderCapacity(t *testing.T) {
	b := NewBus[string](4)
	b.Publish("a")
	b.Publish("b")
	if b.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", b.Dropped())
	}
	snap := b.Snapshot()
	if len(snap) != 2 || snap[0] != "a" || snap[1] != "b" {
		t.Errorf("snapshot = %v, want [a b]", snap)
	}
}

// TestBusExactCapacity: filling the ring exactly drops nothing; one
// more publish drops one.
func TestBusExactCapacity(t *testing.T) {
	b := NewBus[int](3)
	for i := 0; i < 3; i++ {
		b.Publish(i)
	}
	if b.Dropped() != 0 {
		t.Errorf("Dropped at exact capacity = %d, want 0", b.Dropped())
	}
	b.Publish(3)
	if b.Dropped() != 1 {
		t.Errorf("Dropped after one overwrite = %d, want 1", b.Dropped())
	}
	snap := b.Snapshot()
	if snap[0] != 1 || snap[2] != 3 {
		t.Errorf("snapshot = %v, want [1 2 3]", snap)
	}
}

// TestBusSubscribers: subscribers see every value losslessly — even
// ones the ring overwrote — in publish order; a subscriber added
// mid-stream sees only later values.
func TestBusSubscribers(t *testing.T) {
	b := NewBus[int](2)
	var all, late []int
	b.Subscribe(func(v int) { all = append(all, v) })
	for i := 0; i < 5; i++ {
		if i == 3 {
			b.Subscribe(func(v int) { late = append(late, v) })
		}
		b.Publish(i)
	}
	if len(all) != 5 {
		t.Fatalf("subscriber saw %d of 5 values (ring dropped %d, subscribers must not)",
			len(all), b.Dropped())
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("subscriber order wrong: %v", all)
		}
	}
	if len(late) != 2 || late[0] != 3 {
		t.Errorf("late subscriber saw %v, want [3 4]", late)
	}
}

// TestBusDefaultCapacity: non-positive capacities fall back to the
// default: the ring keeps the newest DefaultBusCapacity values.
func TestBusDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		b := NewBus[int](capacity)
		for i := 0; i <= DefaultBusCapacity; i++ {
			b.Publish(i)
		}
		if n, d := len(b.Snapshot()), b.Dropped(); n != DefaultBusCapacity || d != 1 {
			t.Errorf("NewBus(%d): retained %d, dropped %d, want %d and 1", capacity, n, d, DefaultBusCapacity)
		}
	}
}

// TestBusSubscriberChurnDropAccounting: a subscriber joining after the
// ring has already wrapped still observes a consistent world — the
// drop counter at join time plus everything it then receives equals
// the bus total.
func TestBusSubscriberChurnDropAccounting(t *testing.T) {
	b := NewBus[int](4)
	for i := 0; i < 11; i++ {
		b.Publish(i)
	}
	droppedAtJoin, retainedAtJoin := b.Dropped(), len(b.Snapshot())
	if droppedAtJoin != 7 {
		t.Fatalf("Dropped before join = %d, want 7", droppedAtJoin)
	}
	var seen []int
	b.Subscribe(func(v int) { seen = append(seen, v) })
	for i := 11; i < 25; i++ {
		b.Publish(i)
	}
	// Everything published before the join was either dropped or still
	// retained; everything after it was seen. Those partitions must tile
	// the bus total.
	if len(seen) != 14 ||
		droppedAtJoin+retainedAtJoin+len(seen) != b.Total() {
		t.Errorf("churn accounting: seen %d, droppedAtJoin %d, retainedAtJoin %d, total %d",
			len(seen), droppedAtJoin, retainedAtJoin, b.Total())
	}
	for i, v := range seen {
		if v != 11+i {
			t.Fatalf("mid-run subscriber order wrong: %v", seen)
		}
	}
}
