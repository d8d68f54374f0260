package main

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// calibrate times a fixed, standard-library-only kernel shaped like the
// simulator's work: a heap of closures, string-keyed maps built with
// fmt, and float sorting. On a shared 2-vCPU machine the host's speed
// drifts by a third over minutes. A rep's time tracks the kernel's time
// just before it (correlation about 0.6), so dividing a run's host time
// by its kernel time cancels most of the drift: replaying the same
// inputs six times, the spread of run values fell from 14-21% to 2-8%
// (README.md). The kernel must never change: every recorded wall_s and
// setup_s depends on it.
func calibrate() time.Duration {
	start := time.Now()
	var q closureHeap
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	sum := 0
	for i := 0; i < 100000; i++ {
		v := i
		heap.Push(&q, closureItem{t: float64(next()), fn: func() { sum += v }})
	}
	for q.Len() > 0 {
		heap.Pop(&q).(closureItem).fn()
	}
	m := map[string]int{}
	for i := 0; i < 50000; i++ {
		m[fmt.Sprintf("%d/%d", i%5000, i%7)] += sum & 1
	}
	fs := make([]float64, 200000)
	for i := range fs {
		fs[i] = float64(next())
	}
	sort.Float64s(fs)
	return time.Since(start)
}

// calibrationRef is calibrate's median on the reference host (README.md),
// so wall_s and setup_s read in that host's seconds.
const calibrationRef = 0.095

type closureItem struct {
	t  float64
	fn func()
}

type closureHeap []closureItem

func (h closureHeap) Len() int           { return len(h) }
func (h closureHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h closureHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *closureHeap) Push(x any)        { *h = append(*h, x.(closureItem)) }
func (h *closureHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
