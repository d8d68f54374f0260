package chunk

import (
	"strconv"
	"testing"
)

// fill returns a table of rows 0..n-1.
func fill(n int) *Table[int] {
	var t Table[int]
	for i := range n {
		t.Push(i)
	}
	return &t
}

// collect returns the table's rows as All yields them.
func collect[T any](t *Table[T]) []T {
	var out []T
	for v := range t.All() {
		out = append(out, *v)
	}
	return out
}

func TestEmptyTable(t *testing.T) {
	var tb Table[string]
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tb.Len())
	}
	for range tb.All() {
		t.Fatal("an empty table yielded a row")
	}
	tb.Truncate(0)
	if tb.Len() != 0 {
		t.Fatalf("Len after Truncate(0) = %d, want 0", tb.Len())
	}
}

// TestPushAcrossChunks: rows pushed past several chunk boundaries read
// back in order through At and All, and pushing never moves a row.
func TestPushAcrossChunks(t *testing.T) {
	n := 3*Size + 5
	var tb Table[int]
	first := (*int)(nil)
	for i := range n {
		tb.Push(i)
		if i == 0 {
			first = tb.At(0)
		}
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if len(tb.chunks) != 4 {
		t.Fatalf("%d chunks for %d rows, want 4", len(tb.chunks), n)
	}
	if tb.At(0) != first {
		t.Fatal("row 0 moved while the table grew")
	}
	for _, i := range []int{0, Size - 1, Size, 2*Size + 7, n - 1} {
		if got := *tb.At(i); got != i {
			t.Errorf("At(%d) = %d", i, got)
		}
	}
	got := collect(&tb)
	if len(got) != n {
		t.Fatalf("All yielded %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("All yielded %d at position %d", v, i)
		}
	}
}

// TestAllStopsEarly: breaking out of a range over All stops the
// iteration, also at a chunk boundary.
func TestAllStopsEarly(t *testing.T) {
	tb := fill(2*Size + 1)
	seen := 0
	for v := range tb.All() {
		seen++
		if *v == Size-1 {
			break
		}
	}
	if seen != Size {
		t.Fatalf("saw %d rows, want %d", seen, Size)
	}
}

// TestTruncate: Truncate keeps the prefix, zeroes the cut rows in every
// chunk they span, and later pushes land right after the kept end.
func TestTruncate(t *testing.T) {
	var tb Table[string]
	n := 2*Size + 10
	for i := range n {
		tb.Push(strconv.Itoa(i))
	}
	keep := Size / 2
	tb.Truncate(keep)
	if tb.Len() != keep {
		t.Fatalf("Len = %d, want %d", tb.Len(), keep)
	}
	for i := keep; i < n; i++ {
		if s := tb.chunks[i/Size][i%Size]; s != "" {
			t.Fatalf("row %d still holds %q after the cut", i, s)
		}
	}
	tb.Push("next")
	if tb.Len() != keep+1 || *tb.At(keep) != "next" {
		t.Fatalf("push after Truncate: Len %d, row %d = %q", tb.Len(), keep, *tb.At(keep))
	}
	if len(tb.chunks) != 3 {
		t.Fatalf("%d chunks after refilling, want the 3 already allocated", len(tb.chunks))
	}
	got := collect(&tb)
	for i := range keep {
		if got[i] != strconv.Itoa(i) {
			t.Fatalf("row %d = %q after Truncate", i, got[i])
		}
	}
	if got[keep] != "next" {
		t.Fatalf("last row = %q, want next", got[keep])
	}
}

// TestCopyReadsItsPrefix: a copy of a table keeps reading the rows it
// had while the original grows past them.
func TestCopyReadsItsPrefix(t *testing.T) {
	tb := fill(Size - 1)
	snap := *tb
	for i := range 2 * Size {
		tb.Push(-i)
	}
	got := collect(&snap)
	if len(got) != Size-1 {
		t.Fatalf("the copy yielded %d rows, want %d", len(got), Size-1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("the copy's row %d = %d", i, v)
		}
	}
}
