package analytics

import (
	"math"
	"testing"

	"fluidfaas/internal/metrics"
)

// checkSums asserts the package invariant: every reconstructed path's
// components sum exactly to its end-to-end latency.
func checkSums(t *testing.T, paths []RequestPath) {
	t.Helper()
	for _, p := range paths {
		c := p.Comp
		sum := c.Queue + c.Load + c.Exec + c.Transfer + c.Retry
		if d := math.Abs(sum - p.Latency()); d > 1e-9 {
			t.Errorf("req %d/%d: components sum %v != latency %v (diff %g)",
				p.Func, p.Req, sum, p.Latency(), d)
		}
	}
}

// TestReconstructSimpleChain: a clean request decomposes into its
// record's breakdown with queue as the residual; the span log is not
// read for it.
func TestReconstructSimpleChain(t *testing.T) {
	r, col := boundRecorder()
	finalise(r, col, metrics.RequestRecord{ID: 1, Func: 0, Arrival: 0, Completion: 10,
		Load: 1, Exec: 5, Transfer: 1})
	// A span the record does not account for changes nothing.
	r.StageSpan("exec app0", "gpu0/3g.40gb#0", "3g.40gb", 0, 1, 0, 2, 9, 3)

	paths := Reconstruct(r)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	want := Components{Queue: 3, Load: 1, Exec: 5, Transfer: 1, Retry: 0}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	if p.Comp.Dominant() != "exec" {
		t.Errorf("dominant = %q, want exec", p.Comp.Dominant())
	}
	checkSums(t, paths)
}

// TestReconstructRetriedChain: a retried request's retry component runs
// from arrival to its retry mark; exec and load are the record's
// (the surviving attempt's).
func TestReconstructRetriedChain(t *testing.T) {
	r, col := boundRecorder()
	r.AsyncMark("retry", "retry", 0, 7, 4, "slice-fault")
	finalise(r, col, metrics.RequestRecord{ID: 7, Func: 0, Arrival: 0, Completion: 20,
		Load: 2, Exec: 6, Retries: 1})

	paths := Reconstruct(r)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Retries != 1 {
		t.Errorf("retries = %d, want 1", p.Retries)
	}
	// retry = lastRetry - arrival = 4; queue = 20 - 6 - 2 - 4 = 8.
	want := Components{Queue: 8, Load: 2, Exec: 6, Transfer: 0, Retry: 4}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructDoubleRetry: only the last retry mark ends the retry
// component.
func TestReconstructDoubleRetry(t *testing.T) {
	r, col := boundRecorder()
	r.AsyncMark("retry", "retry", 0, 3, 10, "fault")
	r.AsyncMark("retry", "retry", 0, 3, 5, "fault")
	finalise(r, col, metrics.RequestRecord{ID: 3, Func: 0, Arrival: 0, Completion: 30,
		Exec: 6, Retries: 2})

	paths := Reconstruct(r)
	p := paths[0]
	if p.Retries != 2 {
		t.Errorf("retries = %d, want 2", p.Retries)
	}
	want := Components{Queue: 14, Load: 0, Exec: 6, Transfer: 0, Retry: 10}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructPartialChains: dropped and rejected requests carry a
// partial (or empty) breakdown; components still sum exactly.
func TestReconstructPartialChains(t *testing.T) {
	r, col := boundRecorder()
	// Rejected at admission: zero-length window, nothing served.
	finalise(r, col, metrics.RequestRecord{ID: 1, Func: 0, Arrival: 5, Completion: 5, Dropped: true, Rejected: true})
	// Dropped after queueing and a partial load.
	finalise(r, col, metrics.RequestRecord{ID: 2, Func: 1, Arrival: 0, Completion: 9, Load: 2, Dropped: true})
	// Failed after exhausting retries: a mark, no surviving work.
	r.AsyncMark("retry", "retry", 2, 3, 7, "fault")
	finalise(r, col, metrics.RequestRecord{ID: 3, Func: 2, Arrival: 0, Completion: 12, Retries: 1, Dropped: true, Failed: true})

	paths := Reconstruct(r)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	checkSums(t, paths)
	for _, p := range paths {
		switch p.Req {
		case 1:
			if p.Comp != (Components{}) {
				t.Errorf("rejected: components = %+v, want all zero", p.Comp)
			}
		case 2:
			if p.Comp.Load != 2 || p.Comp.Queue != 7 {
				t.Errorf("dropped: components = %+v", p.Comp)
			}
		case 3:
			if p.Comp.Retry != 7 || p.Comp.Queue != 5 {
				t.Errorf("failed: components = %+v", p.Comp)
			}
		}
	}
}

// TestReconstructTrimsToLatency: components past the end-to-end budget
// are trimmed in taxonomy order (exec, transfer, load, retry), so the
// sum never exceeds the latency.
func TestReconstructTrimsToLatency(t *testing.T) {
	r, col := boundRecorder()
	r.AsyncMark("retry", "retry", 0, 4, 3, "fault")
	finalise(r, col, metrics.RequestRecord{ID: 4, Func: 0, Arrival: 0, Completion: 10,
		Exec: 7, Transfer: 2, Load: 4, Retries: 1})

	paths := Reconstruct(r)
	want := Components{Exec: 7, Transfer: 2, Load: 1}
	if p := paths[0]; p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructMigratedChain: migration hop marks (cat "migrate") are
// not mistaken for retries, even when another request's retry makes
// the reconstruction read the span log.
func TestReconstructMigratedChain(t *testing.T) {
	r, col := boundRecorder()
	r.AsyncMark("migrate", "hop", 0, 5, 4, "gpu0->gpu1")
	finalise(r, col, metrics.RequestRecord{ID: 5, Func: 0, Arrival: 0, Completion: 12,
		Exec: 7, Transfer: 1})
	r.AsyncMark("retry", "retry", 1, 6, 2, "fault")
	finalise(r, col, metrics.RequestRecord{ID: 6, Func: 1, Arrival: 0, Completion: 12,
		Exec: 3, Retries: 1})

	paths := Reconstruct(r)
	p := paths[0]
	if p.Req != 5 || p.Retries != 0 {
		t.Errorf("migration hop counted as retry: path %+v", p)
	}
	want := Components{Queue: 4, Load: 0, Exec: 7, Transfer: 1, Retry: 0}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructOrphans: spans and retry marks of requests the run
// never finalised (no record) produce no path.
func TestReconstructOrphans(t *testing.T) {
	r, col := boundRecorder()
	r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, 9, 0, 1, 4, 3)
	r.AsyncMark("retry", "retry", 0, 9, 2, "fault")
	// Instance-scoped spans (req = -1) are never request work.
	r.SliceSpan("load", "launch app0", "gpu0/2g.20gb#0", 0, -1, -1, 0, 5)
	// A retried record makes the reconstruction scan the marks.
	r.AsyncMark("retry", "retry", 0, 1, 1, "fault")
	finalise(r, col, metrics.RequestRecord{ID: 1, Func: 0, Arrival: 0, Completion: 5, Retries: 1})

	paths := Reconstruct(r)
	if len(paths) != 1 || paths[0].Req != 1 {
		t.Errorf("got paths %+v, want only request 1's", paths)
	}
}

// TestReconstructOrdering: output is sorted by completion time, ties by
// function then request, independent of record order.
func TestReconstructOrdering(t *testing.T) {
	r, col := boundRecorder()
	finalise(r, col, metrics.RequestRecord{ID: 0, Func: 1, Arrival: 2, Completion: 8})
	finalise(r, col, metrics.RequestRecord{ID: 5, Func: 0, Arrival: 0, Completion: 8})
	finalise(r, col, metrics.RequestRecord{ID: 1, Func: 0, Arrival: 0, Completion: 4})

	paths := Reconstruct(r)
	got := [][2]int{}
	for _, p := range paths {
		got = append(got, [2]int{p.Func, p.Req})
	}
	want := [][2]int{{0, 1}, {0, 5}, {1, 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}
