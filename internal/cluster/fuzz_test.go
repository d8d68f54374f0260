package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// FuzzMemPool drives a pool with random sequences of every operation and
// checks it against a plain map of the held copies: after each step
// UsedGB equals the sum of the held copies and stays within [0,
// capacity], Models lists exactly the held keys, ParkedCount counts the
// parked ones, and ReserveModel and EvictLRU answer as the map says
// they must. Each op is three bytes: operation, key, size.
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
				delete(parked, key)
			case 1:
				m.ReleaseModel(key)
				delete(held, key)
				delete(parked, key)
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
				delete(parked, key)
			case 4:
				m.Touch(key)
			case 5:
				m.MarkLoaded(key)
				if _, ok := held[key]; m.LoadedCopy(key) != ok {
					t.Fatalf("step %d: LoadedCopy(%s) = %v after MarkLoaded, want %v", i/3, key, !ok, ok)
				}
			case 6:
				// The size byte picks which keys the predicate allows.
				mask := ops[i+2]
				evictable := func(k string) bool {
					for j, x := range keys {
						if x == k {
							return mask&(1<<j) != 0
						}
					}
					return false
				}
				victim, vgb, ok := m.EvictLRU(evictable)
				if ok {
					g, isHeld := held[victim]
					if !isHeld || vgb != g || !(parked[victim] || evictable(victim)) {
						t.Fatalf("step %d: EvictLRU took %s (%v GB): held %v, parked %v", i/3, victim, vgb, isHeld, parked[victim])
					}
					delete(held, victim)
					delete(parked, victim)
				} else {
					for k := range held {
						if parked[k] || evictable(k) {
							t.Fatalf("step %d: EvictLRU found no victim but %s may go", i/3, k)
						}
					}
				}
			case 7:
				m.DropAll()
				held = map[string]float64{}
				parked = map[string]bool{}
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
