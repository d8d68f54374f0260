package cluster

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// FuzzMemPool drives a pool with random sequences of every operation and
// checks it against a plain map of the held copies: after each step
// UsedGB equals the sum of the held copies and stays within [0,
// capacity], Models lists exactly the held keys, ParkedCount counts the
// parked ones, ReserveModel answers as the map says it must, and
// EvictParked takes the least-recently-used parked copy of a model LRU
// list. Each op is three bytes: operation, key, size.
func FuzzMemPool(f *testing.F) {
	f.Add([]byte{0, 0, 80, 0, 1, 80, 0, 2, 40, 1, 0, 0, 0, 2, 40})
	f.Add([]byte{0, 0, 200, 3, 0, 0, 2, 0, 0, 6, 0, 0, 0, 1, 250, 6, 1, 1})
	f.Add([]byte{0, 0, 10, 5, 0, 0, 4, 0, 0, 7, 0, 0, 0, 0, 10, 2, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capGB = 64
		keys := []string{"a", "b", "c", "d"}
		m := NewMemPool(capGB)
		held := map[string]float64{}
		parked := map[string]bool{}
		// lru lists the held keys, most recently used first.
		var lru []string
		drop := func(k string) {
			if j := slices.Index(lru, k); j >= 0 {
				lru = slices.Delete(lru, j, j+1)
			}
		}
		toFront := func(k string) {
			drop(k)
			lru = slices.Insert(lru, 0, k)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op, key, gb := ops[i]%8, keys[int(ops[i+1])%len(keys)], float64(ops[i+2])/8
			switch op {
			case 0:
				_, had := held[key]
				used := 0.0
				for _, g := range held {
					used += g
				}
				want := had || used+gb <= capGB
				if got := m.ReserveModel(key, gb); got != want {
					t.Fatalf("step %d: ReserveModel(%s, %v) = %v with %v held, want %v", i/3, key, gb, got, used, want)
				}
				if want && !had {
					held[key] = gb
				}
				if want {
					toFront(key)
				}
				delete(parked, key)
			case 1:
				m.ReleaseModel(key)
				delete(held, key)
				delete(parked, key)
				drop(key)
			case 2:
				m.Park(key)
				if _, ok := held[key]; ok {
					parked[key] = true
				}
			case 3:
				_, had := held[key]
				if got := m.Reclaim(key); got != had {
					t.Fatalf("step %d: Reclaim(%s) = %v, want %v", i/3, key, got, had)
				}
				if had {
					toFront(key)
				}
				delete(parked, key)
			case 4:
				m.Touch(key)
				if _, ok := held[key]; ok {
					toFront(key)
				}
			case 5:
				m.MarkLoaded(key)
				if _, ok := held[key]; m.LoadedCopy(key) != ok {
					t.Fatalf("step %d: LoadedCopy(%s) = %v after MarkLoaded, want %v", i/3, key, !ok, ok)
				}
			case 6:
				want := ""
				for _, k := range lru {
					if parked[k] {
						want = k // the last parked key is the LRU one
					}
				}
				victim, vgb, ok := m.EvictParked()
				if victim != want || ok != (want != "") || vgb != held[want] {
					t.Fatalf("step %d: EvictParked = %q (%v GB), %v; want %q (%v GB), LRU order %v, parked %v",
						i/3, victim, vgb, ok, want, held[want], lru, parked)
				}
				delete(held, victim)
				delete(parked, victim)
				drop(victim)
			case 7:
				m.DropAll()
				held = map[string]float64{}
				parked = map[string]bool{}
				lru = nil
			}

			sum := 0.0
			want := make([]string, 0, len(held))
			for k, g := range held {
				sum += g
				want = append(want, k)
			}
			sort.Strings(want)
			if used := m.UsedGB(); math.Abs(used-sum) > 1e-9 || used < 0 || used > capGB {
				t.Fatalf("step %d: UsedGB = %v, held copies sum to %v (capacity %v)", i/3, used, sum, capGB)
			}
			if got := m.Models(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Models() = %v, want %v", i/3, got, want)
			}
			if got := m.ParkedCount(); got != len(parked) {
				t.Fatalf("step %d: ParkedCount() = %d, want %d", i/3, got, len(parked))
			}
		}
	})
}
