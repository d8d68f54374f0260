//go:build !race

// Allocation counts are the race-free build's: the race detector adds
// its own, so these guards are not built under -race.

package experiments

import (
	"runtime"
	"testing"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
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

// TestLedgerAllocRatio: the ledger keeps its claims in chunked tables
// and Close sweeps every slice in one scratch buffer sized up front,
// so it too allocates about what it keeps (1.03x). Regrowing sweep
// buffers measured 6x, per-slice sweep buffers and regrowing claim
// slices 2.65x.
func TestLedgerAllocRatio(t *testing.T) {
	checkAllocRatio(t, 1.25, func(c *Config) { c.Util = util.NewLedger() })
}

// TestDecisionsAllocRatio: the decision recorder keeps its bodies,
// candidates and chain log in chunked tables, so it too allocates about
// what it keeps.
func TestDecisionsAllocRatio(t *testing.T) {
	checkAllocRatio(t, 1.5, func(c *Config) { c.Decisions = decisions.NewRecorder(0) })
}

// TestObserverAllocCeilings: on the observed cell each recorder
// allocates at most a fixed number of bytes beyond the bare run, and
// analytics.Analyze at most a fixed number over the span log it reads.
// Each ceiling is about 10% above what pointer-free span rows, chunked
// ledger claims with one sweep buffer, a dense chain index and one burn
// deque per function measure; the comments give what the code before
// them measured.
func TestObserverAllocCeilings(t *testing.T) {
	bare, _ := heapCost(func(*Config) {})
	for _, c := range []struct {
		name    string
		ceiling float64 // MB
		attach  func(*Config)
	}{
		// 8.4 MB; 120-byte span rows with four strings measured 17.0.
		{"spans", 9.2, func(c *Config) { c.Obs = obs.NewRecorder() }},
		// 7.0 MB; per-slice sweep buffers and regrowing claim slices
		// measured 17.0.
		{"ledger", 7.7, func(c *Config) { c.Util = util.NewLedger() }},
		// 14.1 MB; chains in a map by request ID measured 17.1.
		{"decisions", 15.5, func(c *Config) { c.Decisions = decisions.NewRecorder(0) }},
	} {
		alloc, _ := heapCost(c.attach)
		mb := (alloc - bare) / 1e6
		t.Logf("%s: %.2f MB beyond the bare run", c.name, mb)
		if mb > c.ceiling {
			t.Errorf("%s allocates %.2f MB beyond the bare run, want at most %.1f MB", c.name, mb, c.ceiling)
		}
	}

	// 7.5 MB; two burn windows per function, each with its own deque,
	// measured 10.7.
	const analyzeCeiling = 8.3
	rec := obs.NewRecorder()
	heapCost(func(c *Config) { c.Obs = rec })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	analytics.Analyze(analytics.Config{}, rec)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("analytics.Analyze: %.2f MB", mb)
	if mb > analyzeCeiling {
		t.Errorf("analytics.Analyze allocates %.2f MB, want at most %.1f MB", mb, analyzeCeiling)
	}
}
