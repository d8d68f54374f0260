package analytics

import (
	"math"
	"testing"

	"fluidfaas/internal/obs"
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

// TestReconstructSimpleChain: a clean chain decomposes into its parts
// with queue as the residual.
func TestReconstructSimpleChain(t *testing.T) {
	r := obs.NewRecorder()
	// Envelope 0..10: load 1..2, exec 2..5 and 6..8, transfer 5..6.
	r.AsyncSpan("request", "app0", 0, 1, 0, 10, "served")
	r.SliceSpan("load", "load app0", "gpu0/3g.40gb#0", 0, 1, 0, 1, 2)
	r.StageSpan("exec app0", "gpu0/3g.40gb#0", "3g.40gb", 0, 1, 0, 2, 5, 3)
	r.SliceSpan("transfer", "s0->s1", "gpu0/3g.40gb#0", 0, 1, 0, 5, 6)
	r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, 1, 1, 6, 8, 2)

	paths := Reconstruct(r.Spans())
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

// TestReconstructRetriedChain: a retry mark restarts the chain — spans
// recorded before the last mark belong to the failed attempt and are
// charged to the retry component instead of exec.
func TestReconstructRetriedChain(t *testing.T) {
	r := obs.NewRecorder()
	r.AsyncSpan("request", "app0", 0, 7, 0, 20, "served")
	// Failed attempt: exec span recorded ahead-of-time, torn down by a
	// fault at t=4 (span covers time that never completed).
	r.StageSpan("exec app0", "gpu0/3g.40gb#0", "3g.40gb", 0, 7, -1, 2, 8, 6)
	r.AsyncMark("retry", "retry", 0, 7, 4, "slice-fault")
	// Surviving attempt after backoff.
	r.SliceSpan("load", "load app0", "gpu1/3g.40gb#0", 0, 7, -1, 6, 8)
	r.StageSpan("exec app0", "gpu1/3g.40gb#0", "3g.40gb", 0, 7, -1, 8, 14, 6)

	paths := Reconstruct(r.Spans())
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Retries != 1 {
		t.Errorf("retries = %d, want 1", p.Retries)
	}
	// retry = lastRetry - arrival = 4; exec = 6 (surviving only);
	// load = 2; queue = 20 - 6 - 2 - 4 = 8.
	want := Components{Queue: 8, Load: 2, Exec: 6, Transfer: 0, Retry: 4}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructDoubleRetry: only the last retry mark splits the
// chain; earlier marks just count.
func TestReconstructDoubleRetry(t *testing.T) {
	r := obs.NewRecorder()
	r.AsyncSpan("request", "app0", 0, 3, 0, 30, "served")
	r.AsyncMark("retry", "retry", 0, 3, 5, "fault")
	r.StageSpan("exec app0", "gpu0/1g.10gb#0", "1g.10gb", 0, 3, -1, 6, 9, 3)
	r.AsyncMark("retry", "retry", 0, 3, 10, "fault")
	r.StageSpan("exec app0", "gpu0/1g.10gb#1", "1g.10gb", 0, 3, -1, 12, 18, 3)

	paths := Reconstruct(r.Spans())
	p := paths[0]
	if p.Retries != 2 {
		t.Errorf("retries = %d, want 2", p.Retries)
	}
	// The 6..9 exec belongs to the second (failed) attempt: excluded.
	want := Components{Queue: 14, Load: 0, Exec: 6, Transfer: 0, Retry: 10}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructPartialChains: dropped and rejected requests have
// partial (or empty) chains; components still sum exactly.
func TestReconstructPartialChains(t *testing.T) {
	r := obs.NewRecorder()
	// Rejected at admission: zero-length envelope, no slice spans.
	r.AsyncSpan("request", "app0", 0, 1, 5, 5, "rejected")
	// Dropped after queueing and a partial load.
	r.AsyncSpan("request", "app1", 1, 2, 0, 9, "dropped")
	r.SliceSpan("load", "load app1", "gpu0/2g.20gb#0", 1, 2, -1, 6, 8)
	// Failed after exhausting retries: mark only, no surviving spans.
	r.AsyncSpan("request", "app2", 2, 3, 0, 12, "failed")
	r.AsyncMark("retry", "retry", 2, 3, 7, "fault")

	paths := Reconstruct(r.Spans())
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

// TestReconstructOverlapAndSpill: overlapping stage spans and spans
// spilling past the envelope are trimmed so the sum never exceeds the
// end-to-end latency.
func TestReconstructOverlapAndSpill(t *testing.T) {
	r := obs.NewRecorder()
	r.AsyncSpan("request", "app0", 0, 4, 0, 10, "served")
	// Two overlapping exec spans totalling 12 raw seconds inside a
	// 10-second envelope, plus a transfer spilling past the end.
	r.StageSpan("exec app0", "gpu0/3g.40gb#0", "3g.40gb", 0, 4, 0, 1, 8, 7)
	r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, 4, 1, 4, 9, 5)
	r.SliceSpan("transfer", "s0->s1", "gpu0/2g.20gb#0", 0, 4, 1, 9, 15)
	// A load span entirely before arrival: clipped away.
	r.SliceSpan("load", "load app0", "gpu0/3g.40gb#0", 0, 4, -1, -3, -1)

	paths := Reconstruct(r.Spans())
	p := paths[0]
	if p.Comp.Exec != 10 || p.Comp.Transfer != 0 || p.Comp.Load != 0 || p.Comp.Queue != 0 {
		t.Errorf("components = %+v, want exec=10 rest 0", p.Comp)
	}
	checkSums(t, paths)
}

// TestReconstructMigratedChain: a pipeline migration moves later stages
// to different slices mid-request; the chain still sums. Migration hop
// marks (cat "migrate") must not be mistaken for retries.
func TestReconstructMigratedChain(t *testing.T) {
	r := obs.NewRecorder()
	r.AsyncSpan("request", "app0", 0, 5, 0, 12, "served")
	r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, 5, 0, 1, 4, 3)
	r.AsyncMark("migrate", "hop", 0, 5, 4, "gpu0->gpu1")
	r.SliceSpan("transfer", "s0->s1", "gpu1/2g.20gb#0", 0, 5, 1, 4, 5)
	r.StageSpan("exec app0", "gpu1/2g.20gb#0", "2g.20gb", 0, 5, 1, 5, 9, 4)

	paths := Reconstruct(r.Spans())
	p := paths[0]
	if p.Retries != 0 {
		t.Errorf("migration hop counted as retry: retries = %d", p.Retries)
	}
	want := Components{Queue: 4, Load: 0, Exec: 7, Transfer: 1, Retry: 0}
	if p.Comp != want {
		t.Errorf("components = %+v, want %+v", p.Comp, want)
	}
	checkSums(t, paths)
}

// TestReconstructOrphans: slice spans for requests the run never
// finalised (no request envelope) produce no path.
func TestReconstructOrphans(t *testing.T) {
	r := obs.NewRecorder()
	r.StageSpan("exec app0", "gpu0/2g.20gb#0", "2g.20gb", 0, 9, 0, 1, 4, 3)
	r.AsyncMark("retry", "retry", 0, 9, 2, "fault")
	// Instance-scoped spans (req = -1) are never request work.
	r.SliceSpan("load", "launch app0", "gpu0/2g.20gb#0", 0, -1, -1, 0, 5)

	if paths := Reconstruct(r.Spans()); len(paths) != 0 {
		t.Errorf("got %d paths from orphan spans, want 0", len(paths))
	}
}

// TestReconstructOrdering: output is sorted by completion time, ties by
// function then request, independent of span record order.
func TestReconstructOrdering(t *testing.T) {
	r := obs.NewRecorder()
	r.AsyncSpan("request", "app1", 1, 0, 2, 8, "served")
	r.AsyncSpan("request", "app0", 0, 5, 0, 8, "served")
	r.AsyncSpan("request", "app0", 0, 1, 0, 4, "served")

	paths := Reconstruct(r.Spans())
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
