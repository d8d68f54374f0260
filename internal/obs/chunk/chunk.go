// Package chunk holds the append-only table every observer log is kept
// in: the decision recorder's bodies, candidates, chain log and chain
// index, the span recorder's span log, and the utilization ledger's
// per-slice busy claims.
//
// A growing slice copies every row each time it regrows, by 1.25× past
// 256 elements, so a log of n rows ends up allocating several times
// what it keeps. A Table grows by whole fixed-size chunks instead:
// pushing a row never moves an earlier one, and what a run allocates
// for its log is what it keeps.
package chunk

import "iter"

// bits sizes a chunk: 1<<bits rows.
const bits = 10

// Size is the number of rows in a chunk.
const Size = 1 << bits

// Table is an append-only table kept in fixed-size chunks. Pushing
// writes only past the current length, so a copy of a Table (the chunk
// list and the length) stays readable while the original grows; only
// Truncate rewrites rows a copy can see. The zero value is an empty
// table ready to use.
type Table[T any] struct {
	chunks [][]T
	n      int
}

// Len returns the number of rows.
func (t *Table[T]) Len() int { return t.n }

// At returns row i, which must be below Len.
func (t *Table[T]) At(i int) *T { return &t.chunks[i>>bits][i&(Size-1)] }

// Push appends v as row Len.
func (t *Table[T]) Push(v T) {
	if t.n == len(t.chunks)*Size {
		t.chunks = append(t.chunks, make([]T, Size))
	}
	*t.At(t.n) = v
	t.n++
}

// All yields the rows in order, the first Len of them at the time the
// iteration starts.
func (t *Table[T]) All() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		n := t.n
		for _, c := range t.chunks {
			if n == 0 {
				return
			}
			c = c[:min(n, Size)]
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
			n -= len(c)
		}
	}
}

// Truncate keeps the first n rows, which must be at most Len, and
// zeroes the rest, so they hold nothing alive. The chunks stay
// allocated: later pushes refill them.
func (t *Table[T]) Truncate(n int) {
	for i := n; i < t.n; {
		c := t.chunks[i>>bits][i&(Size-1) : min(Size, i&(Size-1)+t.n-i)]
		clear(c)
		i += len(c)
	}
	t.n = n
}
