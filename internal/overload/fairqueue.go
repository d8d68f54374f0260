package overload

import (
	"math"
	"sort"
)

// FairQueue is a start-time fair queue (SFQ) over named flows, the
// queueing discipline MQFQ applies to serverless GPU functions: each
// flow's items carry virtual start/finish tags, and dequeue picks the
// flow whose head has the smallest start tag, so a flow that bursts
// only spends its own virtual time and cannot starve its siblings. A
// "sticky" grace lets the caller keep serving one preferred flow (the
// slice's resident model) while its lead stays inside the grace,
// trading a bounded unfairness for fewer model swaps.
//
// All tie-breaks are lexicographic on the flow key, so the queue is
// fully deterministic.
type FairQueue[T any] struct {
	vt    float64
	flows map[string]*flow[T]
	keys  []string // sorted, for deterministic scans
	size  int
}

type fqItem[T any] struct {
	payload T
	service float64
	start   float64
	finish  float64
}

type flow[T any] struct {
	weight float64
	// lastFinish is the finish tag of the flow's newest item (queued or
	// already dequeued); a flow that went idle restarts at max(vt,
	// lastFinish) so it cannot bank virtual time while absent.
	lastFinish float64
	// servedFinish is the finish tag of the last dequeued item, the
	// re-chaining base when queued items are filtered out.
	servedFinish float64
	q            []fqItem[T]
}

// NewFairQueue returns an empty fair queue.
func NewFairQueue[T any]() *FairQueue[T] {
	return &FairQueue[T]{flows: make(map[string]*flow[T])}
}

// Len returns the total queued items.
func (fq *FairQueue[T]) Len() int { return fq.size }

// FlowLen returns the queued items of one flow.
func (fq *FairQueue[T]) FlowLen(key string) int {
	if fl := fq.flows[key]; fl != nil {
		return len(fl.q)
	}
	return 0
}

// Enqueue adds an item to a flow. weight scales the flow's share
// (<=0 is treated as 1); service is the item's estimated service time,
// the currency of fairness.
func (fq *FairQueue[T]) Enqueue(key string, weight, service float64, payload T) {
	if weight <= 0 {
		weight = 1
	}
	fl := fq.flows[key]
	if fl == nil {
		fl = &flow[T]{}
		fq.flows[key] = fl
		i := sort.SearchStrings(fq.keys, key)
		fq.keys = append(fq.keys, "")
		copy(fq.keys[i+1:], fq.keys[i:])
		fq.keys[i] = key
	}
	fl.weight = weight
	start := math.Max(fq.vt, fl.lastFinish)
	if n := len(fl.q); n > 0 {
		start = fl.q[n-1].finish
	}
	finish := start + service/weight
	fl.q = append(fl.q, fqItem[T]{payload: payload, service: service, start: start, finish: finish})
	fl.lastFinish = finish
	fq.size++
}

// head returns the backlogged flow with the smallest head start tag.
func (fq *FairQueue[T]) head() (string, *flow[T]) {
	var bestKey string
	var best *flow[T]
	for _, key := range fq.keys {
		fl := fq.flows[key]
		if len(fl.q) == 0 {
			continue
		}
		if best == nil || fl.q[0].start < best.q[0].start {
			bestKey, best = key, fl
		}
	}
	return bestKey, best
}

// Dequeue removes and returns the next item. When prefer names a
// backlogged flow whose head start tag is within grace of the fairest
// flow's, the preferred flow is served instead (stickiness). The zero
// T and false are returned when the queue is empty.
func (fq *FairQueue[T]) Dequeue(prefer string, grace float64) (T, bool) {
	key, fl := fq.head()
	if fl == nil {
		var zero T
		return zero, false
	}
	if prefer != "" && prefer != key {
		if pf := fq.flows[prefer]; pf != nil && len(pf.q) > 0 &&
			pf.q[0].start <= fl.q[0].start+grace {
			key, fl = prefer, pf
		}
	}
	it := fl.q[0]
	fl.q = fl.q[1:]
	fq.size--
	fl.servedFinish = it.finish
	if it.start > fq.vt {
		fq.vt = it.start
	}
	return it.payload, true
}

// Items returns every queued payload, flows in key order, FIFO within
// a flow (used for fault teardown).
func (fq *FairQueue[T]) Items() []T {
	out := make([]T, 0, fq.size)
	for _, key := range fq.keys {
		for _, it := range fq.flows[key].q {
			out = append(out, it.payload)
		}
	}
	return out
}

// Clear empties the queue, keeping flow history.
func (fq *FairQueue[T]) Clear() {
	for _, fl := range fq.flows {
		fl.q = nil
	}
	fq.size = 0
}

// Filter removes queued items failing keep and returns them (flows in
// key order, FIFO within a flow). Surviving items are re-chained so
// removed work frees its virtual time: the new head may start at the
// flow's served history, never later than its original tag.
func (fq *FairQueue[T]) Filter(keep func(T) bool) []T {
	var removed []T
	for _, key := range fq.keys {
		fl := fq.flows[key]
		if len(fl.q) == 0 {
			continue
		}
		kept := fl.q[:0]
		dropped := false
		for _, it := range fl.q {
			if keep(it.payload) {
				kept = append(kept, it)
			} else {
				removed = append(removed, it.payload)
				dropped = true
			}
		}
		fl.q = kept
		if !dropped {
			continue
		}
		if len(fl.q) == 0 {
			fl.lastFinish = fl.servedFinish
			continue
		}
		for i := range fl.q {
			if i == 0 {
				// An item never starts before the flow's served history,
				// and removals never push it past its original tag.
				fl.q[0].start = math.Min(fl.q[0].start,
					math.Max(fq.vt, fl.servedFinish))
			} else {
				fl.q[i].start = fl.q[i-1].finish
			}
			fl.q[i].finish = fl.q[i].start + fl.q[i].service/fl.weight
		}
		fl.lastFinish = fl.q[len(fl.q)-1].finish
	}
	fq.size -= len(removed)
	return removed
}
