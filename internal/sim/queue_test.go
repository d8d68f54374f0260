package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// waiter is a queued item ordered by key.
type waiter struct {
	id  int
	key float64
}

func byKey(a, b *waiter) bool { return a.key < b.key }

// TestQueueInsertStable: a queue kept with Insert is the stable sort of
// its items by key, whether an item arrives in key order (appended) or
// out of it (inserted after its equals), with pops of the front in
// between. The buffer slides its live items down rather than growing,
// and popped slots hold no item.
func TestQueueInsertStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue[*waiter]
	var want []*waiter
	for i := 0; i < 300; i++ {
		d := float64(i / 3)
		if rng.Intn(4) == 0 {
			d = float64(rng.Intn(i/3 + 1))
		}
		w := &waiter{id: i, key: d}
		q.Insert(w, byKey)
		j := sort.Search(len(want), func(j int) bool { return want[j].key > d })
		want = slices.Insert(want, j, w)
		if i%10 != 9 {
			continue
		}
		// Every tenth insert, pop seven.
		for range 7 {
			if got := q.Pop(); got != want[0] {
				t.Fatalf("insert %d: popped item %d, want %d", i, got.id, want[0].id)
			}
			want = want[1:]
		}
	}
	if !slices.Equal(q.buf[q.head:], want) {
		t.Error("queue is not the stable key order of its inserts")
	}
	if c := cap(q.buf); c >= 300 {
		t.Errorf("buffer capacity %d holds every insert; popped slots were not reused", c)
	}
	for _, w := range q.buf[:q.head] {
		if w != nil {
			t.Fatalf("popped item %d still held by the buffer", w.id)
		}
	}
	for range want {
		q.Pop()
	}
	if q.Len() != 0 || q.head != 0 || len(q.buf) != 0 {
		t.Errorf("drained queue: head %d, len %d, want both 0", q.head, len(q.buf))
	}
}

// TestQueueFilterMatchesDeleteFunc: random Filter masks, interleaved
// with pushes and pops, leave the queue equal to slices.DeleteFunc of
// its items: survivors keep their order, every slot outside the live
// window is zero, each item's slot is zeroed before keep sees it, and
// the buffer stays bounded by the deepest backlog.
func TestQueueFilterMatchesDeleteFunc(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[*waiter]
		var want []*waiter
		next, maxLen := 0, 0
		for round := 0; round < 500; round++ {
			for range rng.Intn(8) {
				w := &waiter{id: next}
				next++
				q.Push(w)
				want = append(want, w)
			}
			maxLen = max(maxLen, q.Len())
			drop := make(map[*waiter]bool)
			for _, w := range want {
				drop[w] = rng.Intn(2) == 0
			}
			q.Filter(func(w *waiter) bool {
				if slices.Contains(q.buf[:cap(q.buf)], w) {
					t.Fatalf("seed %d round %d: item %d still in the buffer while keep runs", seed, round, w.id)
				}
				return !drop[w]
			})
			want = slices.DeleteFunc(want, func(w *waiter) bool { return drop[w] })
			for range rng.Intn(q.Len() + 1) {
				if got := q.Pop(); got != want[0] {
					t.Fatalf("seed %d round %d: popped item %d, want %d", seed, round, got.id, want[0].id)
				}
				want = want[1:]
			}
			if q.Len() != len(want) {
				t.Fatalf("seed %d round %d: %d waiting, want %d", seed, round, q.Len(), len(want))
			}
			for i, w := range want {
				if q.At(i) != w {
					t.Fatalf("seed %d round %d: item %d is %d, want %d", seed, round, i, q.At(i).id, w.id)
				}
			}
			for i, w := range q.buf[:cap(q.buf)] {
				if (i < q.head || i >= len(q.buf)) && w != nil {
					t.Fatalf("seed %d round %d: slot %d outside the live window holds item %d", seed, round, i, w.id)
				}
			}
		}
		if c := cap(q.buf); c > 4*maxLen {
			t.Errorf("seed %d: buffer reached capacity %d for at most %d waiting items", seed, c, maxLen)
		}
	}
}
