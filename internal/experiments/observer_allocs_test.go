//go:build !race

// Allocation counts are the race-free build's: the race detector adds
// its own, so these guards are not built under -race.

package experiments

import (
	"runtime"
	"testing"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/scheduler"
)

// heapCost runs the observed cell — FluidFaaS on the heavy workload, 4
// nodes at twice the paper's rate for 600 s — with the observers attach
// sets, and returns the bytes the run allocated and the bytes still
// live after a GC with those observers kept.
func heapCost(attach func(*Config)) (alloc, retained float64) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.RateScale = 2
	cfg.Duration = 600
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	attach(&cfg)
	RunSystem(&scheduler.FluidFaaS{}, Heavy, cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cfg)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// checkAllocRatio fails t when the observers attach sets allocate more
// than limit times what they keep: the bytes the run allocates beyond
// the bare run's, over the bytes it retains beyond the bare run's.
func checkAllocRatio(t *testing.T, limit float64, attach func(*Config)) {
	t.Helper()
	bareAlloc, bareKept := heapCost(func(*Config) {})
	alloc, kept := heapCost(attach)
	alloc, kept = alloc-bareAlloc, kept-bareKept
	if kept <= 0 {
		t.Fatalf("the observer keeps %.1f MB; it recorded nothing", kept/1e6)
	}
	ratio := alloc / kept
	t.Logf("allocates %.1f MB, keeps %.1f MB: %.2fx", alloc/1e6, kept/1e6, ratio)
	if ratio > limit {
		t.Errorf("the observer allocates %.2fx the %.1f MB it keeps, want at most %.1fx", ratio, kept/1e6, limit)
	}
}

// TestSpanRecorderAllocRatio: the span log is a chunked table, so the
// span recorder allocates about what it keeps. A regrowing slice log
// measured 4.6x.
func TestSpanRecorderAllocRatio(t *testing.T) {
	checkAllocRatio(t, 1.5, func(c *Config) { c.Obs = obs.NewRecorder() })
}

// TestLedgerAllocRatio: the ledger's one transient cost is Close's
// sweep, whose buffers are sized up front; 3x leaves room for them.
// Regrowing sweep buffers measured 6x.
func TestLedgerAllocRatio(t *testing.T) {
	checkAllocRatio(t, 3, func(c *Config) { c.Util = util.NewLedger() })
}

// TestDecisionsAllocRatio: the decision recorder keeps its bodies,
// candidates and chain log in chunked tables, so it too allocates about
// what it keeps.
func TestDecisionsAllocRatio(t *testing.T) {
	checkAllocRatio(t, 1.5, func(c *Config) { c.Decisions = decisions.NewRecorder(0) })
}
