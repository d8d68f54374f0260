//go:build !race

// Allocation counts are the race-free build's: the race detector adds
// its own, so this guard is not built under -race.

package trace

import (
	"runtime"
	"testing"
)

// TestGenerateAllocatesOnce: each stream's arrivals are reserved up
// front and the merge writes each request once, so Generate allocates
// about 32 bytes per request (a 24-byte Request and an 8-byte arrival),
// not the several times that a regrowing arrivals slice costs.
func TestGenerateAllocatesOnce(t *testing.T) {
	spec := scaleSpec()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := Generate(spec)
	runtime.ReadMemStats(&after)
	n := len(tr.Requests)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	per := alloc / float64(n)
	t.Logf("%d requests, %.1f MB: %.1f B/request (%.2fx of 32)", n, alloc/1e6, per, per/32)
	if per > 1.25*32 {
		t.Errorf("Generate allocates %.1f B per request, want at most %.0f", per, 1.25*32)
	}
}
