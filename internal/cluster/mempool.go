package cluster

import (
	"container/list"
	"sort"
)

// MemPool is a node's host-memory pool. It backs the warm keep-alive
// tier: every model copy held in CPU memory is one keyed reservation
// (ReserveModel/ReleaseModel), tracked in LRU order so the swap tier
// can evict the least-recently-used parked copy under pressure. A copy
// may be "parked" — still resident, but with no live binding — which
// makes it an eviction candidate (the only kind) and lets a later
// binding reclaim it instead of refetching remotely. With the swap
// tier off the platform only reserves and releases: one copy per bound
// function, never evicted or parked.
type MemPool struct {
	capGB  float64
	usedGB float64

	entries map[string]*poolEntry
	lru     *list.List // front = most recently used; back = LRU victim
}

type poolEntry struct {
	key    string
	gb     float64
	parked bool
	// loaded marks the copy as materialised: the model was actually
	// fetched into the reserved space at least once. A bare reservation
	// is space, not data — reloading from it would be a phantom warm
	// start.
	loaded bool
	elem   *list.Element
}

// NewMemPool returns an empty pool with the given capacity.
func NewMemPool(capGB float64) *MemPool {
	return &MemPool{
		capGB:   capGB,
		entries: make(map[string]*poolEntry),
		lru:     list.New(),
	}
}

// CapacityGB returns the pool capacity.
func (m *MemPool) CapacityGB() float64 { return m.capGB }

// UsedGB returns reserved memory, the sum of the held copies.
func (m *MemPool) UsedGB() float64 { return m.usedGB }

// Occupancy returns UsedGB/CapacityGB, the pool-pressure metric; zero
// when the pool has no capacity.
func (m *MemPool) Occupancy() float64 {
	if m.capGB <= 0 {
		return 0
	}
	return m.usedGB / m.capGB
}

// Has reports whether the pool holds a copy for key.
func (m *MemPool) Has(key string) bool {
	_, ok := m.entries[key]
	return ok
}

// Parked reports whether key's copy is parked (resident with no live
// binding). False when the key is absent.
func (m *MemPool) Parked(key string) bool {
	e, ok := m.entries[key]
	return ok && e.parked
}

// ReserveModel reserves gb for the model copy key, marking it most
// recently used. An already-present key is refreshed in place (and
// un-parked) regardless of gb. Reports false when the pool cannot fit
// the reservation (exact fit is allowed); the caller decides whether to
// evict and retry.
func (m *MemPool) ReserveModel(key string, gb float64) bool {
	if e, ok := m.entries[key]; ok {
		e.parked = false
		m.lru.MoveToFront(e.elem)
		return true
	}
	if m.usedGB+gb > m.capGB {
		return false
	}
	e := &poolEntry{key: key, gb: gb}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.usedGB += gb
	return true
}

// ReleaseModel drops key's reservation. Unknown keys are a no-op, so
// teardown paths may release defensively.
func (m *MemPool) ReleaseModel(key string) {
	e, ok := m.entries[key]
	if !ok {
		return
	}
	m.lru.Remove(e.elem)
	delete(m.entries, key)
	m.usedGB -= e.gb
	if m.usedGB < 0 {
		m.usedGB = 0
	}
}

// Touch marks key's copy most recently used.
func (m *MemPool) Touch(key string) {
	if e, ok := m.entries[key]; ok {
		m.lru.MoveToFront(e.elem)
	}
}

// MarkLoaded records that key's copy was materialised: a model fetch
// completed into the reserved space. Unknown keys are a no-op (the
// reservation may have been evicted while the fetch was in flight).
func (m *MemPool) MarkLoaded(key string) {
	if e, ok := m.entries[key]; ok {
		e.loaded = true
	}
}

// LoadedCopy reports whether the pool holds a materialised copy for
// key — a reservation whose model fetch completed. Only such a copy can
// make a later load warm.
func (m *MemPool) LoadedCopy(key string) bool {
	e, ok := m.entries[key]
	return ok && e.loaded
}

// Park marks key's copy as having no live binding: it stays resident
// and reclaimable, but becomes an eviction candidate.
func (m *MemPool) Park(key string) {
	if e, ok := m.entries[key]; ok {
		e.parked = true
	}
}

// Reclaim re-attaches a parked copy to a live binding, marking it most
// recently used. Reports false when the key is absent.
func (m *MemPool) Reclaim(key string) bool {
	e, ok := m.entries[key]
	if !ok {
		return false
	}
	e.parked = false
	m.lru.MoveToFront(e.elem)
	return true
}

// EvictParked removes and returns the least-recently-used parked copy;
// a copy in use is never evicted. ok is false when no copy is parked.
func (m *MemPool) EvictParked() (string, float64, bool) {
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*poolEntry)
		if e.parked {
			m.lru.Remove(e.elem)
			delete(m.entries, e.key)
			m.usedGB -= e.gb
			if m.usedGB < 0 {
				m.usedGB = 0
			}
			return e.key, e.gb, true
		}
	}
	return "", 0, false
}

// Models returns the resident copy keys, sorted, for snapshots.
func (m *MemPool) Models() []string {
	out := make([]string, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParkedCount returns how many resident copies are parked.
func (m *MemPool) ParkedCount() int {
	n := 0
	for _, e := range m.entries {
		if e.parked {
			n++
		}
	}
	return n
}

// DropAll empties the pool (a node crash loses CPU memory).
func (m *MemPool) DropAll() {
	m.usedGB = 0
	m.entries = make(map[string]*poolEntry)
	m.lru.Init()
}
