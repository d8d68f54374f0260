package cluster

import (
	"reflect"
	"testing"
)

func TestMemPoolKeyedReserveRelease(t *testing.T) {
	m := NewMemPool(100)
	if !m.ReserveModel("a", 40) || !m.ReserveModel("b", 40) {
		t.Fatal("reservations failed with room to spare")
	}
	if m.ReserveModel("c", 30) {
		t.Error("ReserveModel(c, 30) succeeded with only 20 free")
	}
	if !m.ReserveModel("c", 20) {
		t.Error("exact-fit keyed reservation refused")
	}
	if m.UsedGB() != 100 || m.capGB-m.usedGB != 0 {
		t.Errorf("used/free = %v/%v, want 100/0", m.UsedGB(), m.capGB-m.usedGB)
	}
	// Re-reserving an existing key refreshes in place: no double charge.
	if !m.ReserveModel("a", 40) {
		t.Error("re-reserving a resident key should always succeed")
	}
	if m.UsedGB() != 100 {
		t.Errorf("re-reserve double-charged: used = %v", m.UsedGB())
	}
	m.ReleaseModel("b")
	if m.Has("b") || m.UsedGB() != 60 {
		t.Errorf("after release: has(b)=%v used=%v", m.Has("b"), m.UsedGB())
	}
	m.ReleaseModel("b") // unknown key: defensive no-op
	if m.UsedGB() != 60 {
		t.Errorf("double release changed accounting: used = %v", m.UsedGB())
	}
	if got := m.Models(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("Models() = %v", got)
	}
}

func TestMemPoolLRUEvictionOrder(t *testing.T) {
	m := NewMemPool(100)
	m.ReserveModel("a", 30)
	m.ReserveModel("b", 30)
	m.ReserveModel("c", 30)
	m.Touch("a") // order (MRU..LRU): a c b
	for _, k := range []string{"a", "b", "c"} {
		m.Park(k)
	}
	key, gb, ok := m.EvictParked()
	if !ok || key != "b" || gb != 30 {
		t.Fatalf("first eviction = %q/%v/%v, want b/30/true", key, gb, ok)
	}
	key, _, ok = m.EvictParked()
	if !ok || key != "c" {
		t.Fatalf("second eviction = %q, want c", key)
	}
	if m.UsedGB() != 30 {
		t.Errorf("used after evictions = %v, want 30", m.UsedGB())
	}
}

// TestMemPoolEvictsOnlyParked: eviction passes over copies in use,
// however old, and finds nothing when no copy is parked.
func TestMemPoolEvictsOnlyParked(t *testing.T) {
	m := NewMemPool(100)
	m.ReserveModel("live", 40)
	m.ReserveModel("parked", 40)
	m.Park("parked") // "live" stays the LRU copy
	key, _, ok := m.EvictParked()
	if !ok || key != "parked" {
		t.Fatalf("eviction = %q/%v, want parked/true (skipping the live LRU copy)", key, ok)
	}
	if _, _, ok := m.EvictParked(); ok {
		t.Error("eviction succeeded with no copy parked")
	}
	if !m.Has("live") || m.UsedGB() != 40 {
		t.Errorf("live copy lost: has=%v used=%v", m.Has("live"), m.UsedGB())
	}
	m.Park("live")
	if key, _, ok := m.EvictParked(); !ok || key != "live" {
		t.Errorf("parked copy not evicted: %q/%v", key, ok)
	}
}

func TestMemPoolParkReclaim(t *testing.T) {
	m := NewMemPool(100)
	m.ReserveModel("a", 30)
	if m.Parked("a") {
		t.Error("fresh reservation reported parked")
	}
	m.Park("a")
	if !m.Parked("a") || m.ParkedCount() != 1 {
		t.Errorf("park not recorded: parked=%v count=%d", m.Parked("a"), m.ParkedCount())
	}
	if !m.Reclaim("a") || m.Parked("a") {
		t.Error("reclaim failed or left the copy parked")
	}
	if m.Reclaim("ghost") {
		t.Error("reclaimed an absent key")
	}
	// ReserveModel on a parked key un-parks it too.
	m.Park("a")
	m.ReserveModel("a", 30)
	if m.Parked("a") {
		t.Error("re-reservation left the copy parked")
	}
}

func TestMemPoolLoadedCopy(t *testing.T) {
	m := NewMemPool(100)
	m.ReserveModel("a", 30)
	// A bare reservation is space, not data: it must not count as a
	// warm copy until the fetch lands.
	if m.LoadedCopy("a") {
		t.Error("bare reservation reported as a loaded copy")
	}
	m.MarkLoaded("a")
	if !m.LoadedCopy("a") {
		t.Error("materialised copy not reported loaded")
	}
	m.MarkLoaded("ghost") // eviction raced the fetch: no-op
	if m.Has("ghost") || m.LoadedCopy("ghost") {
		t.Error("MarkLoaded resurrected an absent key")
	}
	m.ReleaseModel("a")
	m.ReserveModel("a", 30)
	if m.LoadedCopy("a") {
		t.Error("loaded flag survived release + re-reservation")
	}
}

func TestMemPoolOccupancy(t *testing.T) {
	m := NewMemPool(200)
	if m.Occupancy() != 0 {
		t.Errorf("empty occupancy = %v", m.Occupancy())
	}
	m.ReserveModel("a", 50)
	m.ReserveModel("b", 50)
	if m.Occupancy() != 0.5 {
		t.Errorf("occupancy = %v, want 0.5", m.Occupancy())
	}
	if m.ReserveModel("c", 150) {
		t.Error("reservation ignored the held copies")
	}
	if NewMemPool(0).Occupancy() != 0 {
		t.Error("zero-capacity pool occupancy not 0")
	}
}

func TestMemPoolDropAll(t *testing.T) {
	m := NewMemPool(100)
	m.ReserveModel("a", 30)
	m.MarkLoaded("a")
	m.ReserveModel("b", 20)
	m.Park("b")
	m.DropAll()
	if m.UsedGB() != 0 || m.Has("a") || m.LoadedCopy("a") || len(m.Models()) != 0 || m.ParkedCount() != 0 {
		t.Errorf("DropAll left state: used=%v has=%v", m.UsedGB(), m.Has("a"))
	}
	// The pool is fully usable again afterwards.
	if !m.ReserveModel("a", 100) {
		t.Error("post-drop exact-fit reservation failed")
	}
}
