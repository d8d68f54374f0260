package platform

import (
	"math"
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/scheduler"
)

// TestGrayDisabledIdentity: with Gray.Enabled false, the platform must
// be bit-for-bit identical to one that never mentioned the subsystem —
// the Hedge sibling switch must not leak into behaviour.
func TestGrayDisabledIdentity(t *testing.T) {
	run := func(g GrayOptions) (*Platform, []Event) {
		specs := specsFor(t, dnn.Medium)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 77, Gray: g})
		var events []Event
		p.Subscribe(collect(&events))
		p.Run(flatTrace(specs, 10, 120, 77), 60)
		return p, events
	}
	a, evA := run(GrayOptions{})
	b, evB := run(GrayOptions{Enabled: false, Hedge: true})
	if !reflect.DeepEqual(a.Collector().Records(), b.Collector().Records()) {
		t.Error("request records diverged with the subsystem disabled")
	}
	if a.Engine().Executed() != b.Engine().Executed() {
		t.Errorf("event counts diverged: %d vs %d",
			a.Engine().Executed(), b.Engine().Executed())
	}
	if a.Launched() != b.Launched() || a.Evictions() != b.Evictions() {
		t.Error("launch/eviction counters diverged")
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Error("event streams diverged")
	}
	if !reflect.DeepEqual(a.UtilGPCs, b.UtilGPCs) {
		t.Error("utilisation timelines diverged")
	}
	for _, p := range []*Platform{a, b} {
		if p.Suspects() != 0 || p.Quarantines() != 0 || p.Hedges() != 0 ||
			p.HedgeWins() != 0 || p.HedgeCancels() != 0 || p.HedgeWastedSeconds() != 0 {
			t.Error("disabled subsystem recorded gray activity")
		}
		if len(p.health) != 0 {
			t.Error("disabled subsystem scored slices")
		}
	}
}

// TestDegradedSliceSlowsExecution: a degraded slice keeps serving but
// stretches exec and load by the severity; recovery restores the
// profile times exactly.
func TestDegradedSliceSlowsExecution(t *testing.T) {
	const sev = 3.0
	run := func(degrade bool) metrics.RequestRecord {
		specs := specsFor(t, dnn.Small)[:1]
		cl := smallCluster(1)
		p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
		if degrade {
			for gi, g := range cl.Nodes[0].GPUs {
				for si := range g.Slices {
					p.injectFault(faults.Event{
						Kind: faults.SliceDegraded, Node: 0, GPU: gi, Slice: si, Severity: sev,
					})
				}
			}
		}
		p.InjectRequest(0, 0)
		p.Engine().RunUntil(300)
		recs := p.Collector().Records()
		if len(recs) != 1 {
			t.Fatalf("recorded %d requests, want 1", len(recs))
		}
		return recs[0]
	}
	clean := run(false)
	slow := run(true)
	if math.Abs(slow.Exec-sev*clean.Exec) > 1e-9 {
		t.Errorf("degraded exec = %v, want %v (x%.0f of %v)", slow.Exec, sev*clean.Exec, sev, clean.Exec)
	}
	if clean.Load <= 0 {
		t.Fatal("expected a cold load in the clean run")
	}
	if math.Abs(slow.Load-sev*clean.Load) > 1e-9 {
		t.Errorf("degraded load = %v, want %v", slow.Load, sev*clean.Load)
	}

	// Recovery clears the multiplier entirely.
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1})
	ev := faults.Event{Kind: faults.SliceDegraded, Node: 0, GPU: 0, Slice: 0, Severity: sev}
	p.injectFault(ev)
	sl := cl.Nodes[0].GPUs[0].Slices[0]
	if got := p.degradeFactor(sl); got != sev {
		t.Fatalf("degradeFactor = %v, want %v", got, sev)
	}
	if p.DegradedActive() != 1 || p.FaultsInjected() != 1 {
		t.Error("degradation not accounted")
	}
	// A degraded slice is NOT fail-stop: it stays in placement.
	if !sl.Usable() {
		t.Error("degraded slice left placement; only quarantine may do that")
	}
	p.recoverFault(ev)
	if got := p.degradeFactor(sl); got != 1 {
		t.Errorf("degradeFactor after recovery = %v, want 1", got)
	}
	if p.DegradedActive() != 0 || p.Recoveries() != 1 {
		t.Error("recovery not accounted")
	}
}

// TestHealthScoreSuspectThenRecovery: slow executions push a slice to
// suspect; sustained on-profile timing (recoverDwell) clears it without
// ever quarantining.
func TestHealthScoreSuspectThenRecovery(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1, Gray: GrayOptions{Enabled: true}})
	sl := cl.Nodes[0].GPUs[0].Slices[0]
	eng := p.Engine()
	// Three 2x-slow executions at t=0: the third crosses grayMinSamples
	// and suspectRatio together.
	eng.At(0, func() {
		for i := 0; i < 3; i++ {
			p.observeSliceExec(sl, 1, 2)
		}
	})
	// On-profile observations once a second decay the score; it reaches
	// recoverRatio (1.15) at the 5th sample (t=5) and must then dwell 5
	// more seconds before clearing at t=10.
	for i := 1; i <= 12; i++ {
		ti := float64(i)
		eng.At(ti, func() { p.observeSliceExec(sl, 1, 1) })
	}
	eng.RunUntil(4.5)
	h := p.health[sl]
	if h == nil || h.state != sliceSuspect {
		t.Fatal("slice not suspect after three 2x executions")
	}
	if p.Suspects() != 1 {
		t.Errorf("suspects = %d, want 1", p.Suspects())
	}
	eng.RunUntil(9.5)
	if h.state != sliceSuspect {
		t.Error("suspect cleared before the recovery dwell elapsed")
	}
	eng.RunUntil(12.5)
	if h.state != sliceHealthy {
		t.Errorf("suspect not cleared after dwell (score %.3f)", h.score)
	}
	if p.Quarantines() != 0 || sl.Quarantined() {
		t.Error("recovering slice was quarantined")
	}
	if got := p.CountEvents()[EvSliceSuspect]; got != 1 {
		t.Errorf("EvSliceSuspect count = %d, want 1", got)
	}
}

// TestQuarantineLifecycle: crossing the quarantine threshold pulls the
// slice from placement, tears down its time-sharing owner, voids the
// warmth stamps of the affected functions, and readmits the slice as
// suspect after probation.
func TestQuarantineLifecycle(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1, Gray: GrayOptions{Enabled: true}})
	inv, fn := p.inv[0], p.funcs[0]
	b := inv.bindTS(fn)
	if b == nil {
		t.Fatal("bindTS failed")
	}
	sl := b.shared.slice
	fn.lastNodeUse[0] = 0 // warmth the quarantine must void
	// Suspect, then one catastrophic observation over the threshold.
	for i := 0; i < 3; i++ {
		p.observeSliceExec(sl, 1, 2)
	}
	p.observeSliceExec(sl, 1, 8) // score 0.65*2 + 0.35*8 = 4.1 >= 2.0
	if !sl.Quarantined() {
		t.Fatal("slice not quarantined")
	}
	if p.Quarantines() != 1 {
		t.Errorf("quarantines = %d, want 1", p.Quarantines())
	}
	if fn.ts != nil {
		t.Error("time-sharing binding survived the quarantine teardown")
	}
	if _, ok := fn.lastNodeUse[0]; ok {
		t.Error("quarantine left the function's warmth stamp in place")
	}
	if got := len(cl.Nodes[0].FreeSlices()); got != len(cl.Nodes[0].GPUs[0].Slices)-1 {
		t.Errorf("quarantined slice still placeable: %d free slices", got)
	}
	if got := p.CountEvents()[EvSliceQuarantine]; got != 1 {
		t.Errorf("EvSliceQuarantine count = %d, want 1", got)
	}
	// Probation readmits the slice as suspect with a reset score.
	p.Engine().RunUntil(grayProbation + 1)
	if sl.Quarantined() {
		t.Error("quarantine not lifted after probation")
	}
	h := p.health[sl]
	if h == nil || h.state != sliceSuspect {
		t.Error("readmitted slice not on probationary suspect status")
	}
	// One slow probe re-quarantines immediately (score >= threshold).
	p.observeSliceExec(sl, 1, 4)
	if !sl.Quarantined() || p.Quarantines() != 2 {
		t.Error("slow probe after probation did not re-quarantine")
	}
}

// TestHedgeSingleRecord: of a hedged pair exactly one Completion is
// recorded (the winner); the loser's spent work lands in the dedicated
// wasted counter, never in the metrics.
func TestHedgeSingleRecord(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1, Gray: GrayOptions{Enabled: true, Hedge: true}})
	fn := p.funcs[0]
	mk := func() *request {
		return &request{
			id: 7, fn: fn, arrival: 0, deadline: fn.spec.SLO,
			rec: metrics.RequestRecord{ID: 7, Func: 0, SLO: fn.spec.SLO},
		}
	}
	primary, clone := mk(), mk()
	p.armHedge(primary, clone, "test", false)
	if p.Hedges() != 1 || fn.hedges != 1 {
		t.Fatal("hedge launch not accounted")
	}
	primary.rec.Exec, primary.rec.Load = 2, 0.5 // spent when it loses
	clone.rec.Exec = 1
	p.complete(clone) // clone wins the race
	if primary.hedgeCancelled() {
		// Sanity of the cancel predicate direction.
	} else {
		t.Fatal("primary not cancelled after the clone won")
	}
	if clone.hedgeCancelled() {
		t.Fatal("winner believes it was cancelled")
	}
	p.complete(primary) // loser finishes: swallowed
	recs := p.Collector().Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d completions for a hedged pair, want 1", len(recs))
	}
	if recs[0].Exec != 1 {
		t.Errorf("recorded the loser's breakdown (exec %v)", recs[0].Exec)
	}
	if p.HedgeWins() != 1 {
		t.Errorf("hedgeWins = %d, want 1", p.HedgeWins())
	}
	if got, want := p.HedgeWastedSeconds(), 2.5; got != want {
		t.Errorf("wasted = %v, want %v", got, want)
	}
	if p.HedgeCancels() != 1 {
		t.Errorf("hedgeCancels = %d, want 1", p.HedgeCancels())
	}
	if fn.served != 1 {
		t.Errorf("fn.served = %d, want 1 (winner only)", fn.served)
	}
}

// TestRetryHedgeMutualExclusion: a hedged copy that loses its hardware
// never also spawns a fault retry — the partner is the retry. Only when
// both copies are dead does the last one fall back to the normal path.
func TestRetryHedgeMutualExclusion(t *testing.T) {
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: 1, Gray: GrayOptions{Enabled: true, Hedge: true}})
	fn := p.funcs[0]
	mk := func(id int) *request {
		return &request{
			id: id, fn: fn, arrival: 0, deadline: fn.spec.SLO,
			rec: metrics.RequestRecord{ID: id, Func: 0, SLO: fn.spec.SLO},
		}
	}

	// Case 1: one copy dies while the race is live -> abandoned, no retry.
	primary, clone := mk(1), mk(2)
	p.armHedge(primary, clone, "test", false)
	p.retryAfterFault(primary, "slice failed")
	if p.Retries() != 0 {
		t.Error("live hedge copy spawned a fault retry")
	}
	if p.Collector().Len() != 0 {
		t.Error("abandoned copy produced a record")
	}
	// Case 2: the second copy dies too -> hedge void, normal retry.
	p.retryAfterFault(clone, "slice failed")
	if p.Retries() != 1 {
		t.Errorf("retries = %d, want 1 after both copies died", p.Retries())
	}
	if clone.hedge != nil {
		t.Error("voided hedge still attached to the surviving copy")
	}

	// Case 3: the loser of a settled race dies -> waste counted, no retry.
	primary2, clone2 := mk(3), mk(4)
	p.armHedge(primary2, clone2, "test", false)
	primary2.rec.Exec = 1.5
	p.complete(clone2) // clone wins and is recorded
	base := p.Collector().Len()
	p.retryAfterFault(primary2, "slice failed")
	if p.Retries() != 1 {
		t.Error("settled loser spawned a fault retry")
	}
	if p.Collector().Len() != base {
		t.Error("settled loser produced a second record")
	}
	if p.HedgeWastedSeconds() < 1.5 {
		t.Errorf("loser's spent work not charged: wasted = %v", p.HedgeWastedSeconds())
	}
}

// TestRetryBackoffJitter: the backoff before a retry is the capped
// exponential spread deterministically over [0.5, 1.5) by a hash of the
// request identity — reproducible, bounded, and de-synchronised across
// requests.
func TestRetryBackoffJitter(t *testing.T) {
	cases := []struct {
		id, attempt int
		base        float64
	}{
		{1, 1, 0.05}, {1, 2, 0.1}, {1, 3, 0.2},
		{2, 1, 0.05}, {999, 2, 0.1},
		{7, 6, 1}, // 0.05*2^5 = 1.6 -> capped at 1
		{0, 1, 0.05},
	}
	for _, tc := range cases {
		got := retryBackoff(tc.id, tc.attempt)
		if got != retryBackoff(tc.id, tc.attempt) {
			t.Fatalf("id %d attempt %d: backoff not deterministic", tc.id, tc.attempt)
		}
		if got < 0.5*tc.base || got >= 1.5*tc.base {
			t.Errorf("id %d attempt %d: backoff %v outside [%v, %v)",
				tc.id, tc.attempt, got, 0.5*tc.base, 1.5*tc.base)
		}
	}
	// Different requests at the same attempt must not retry in lockstep.
	a := retryBackoff(1, 1)
	b := retryBackoff(2, 1)
	c := retryBackoff(3, 1)
	if a == b && b == c {
		t.Error("jitter identical across request IDs")
	}
	// And the jitter itself stays in [0, 1).
	for id := 0; id < 50; id++ {
		j := retryJitter(id, 1)
		if j < 0 || j >= 1 {
			t.Fatalf("jitter(%d) = %v outside [0,1)", id, j)
		}
	}
}

// TestGrayEndToEndDeterminism: a full run with degraded faults, the
// scorer and hedging on is deterministic, conserves one record per
// request, and keeps every function's hedge rate under its budget.
func TestGrayEndToEndDeterminism(t *testing.T) {
	run := func() *Platform {
		specs := specsFor(t, dnn.Small)
		cl := cluster.New(cluster.DefaultSpec())
		p := New(cl, specs, Options{
			Policy: &scheduler.FluidFaaS{}, Seed: 7,
			Faults: &faults.Spec{DegradedRate: 0.05, DegradedMTTR: 60},
			Gray:   GrayOptions{Enabled: true, Hedge: true},
		})
		tr := flatTrace(specs, 6, 180, 7)
		p.Run(tr, 60)
		if p.Collector().Len() != len(tr.Requests) {
			t.Fatalf("recorded %d of %d requests", p.Collector().Len(), len(tr.Requests))
		}
		return p
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Collector().Records(), b.Collector().Records()) {
		t.Error("gray-on records diverged across same-seed runs")
	}
	if a.Engine().Executed() != b.Engine().Executed() {
		t.Error("gray-on event counts diverged")
	}
	if a.Suspects() != b.Suspects() || a.Quarantines() != b.Quarantines() ||
		a.Hedges() != b.Hedges() || a.HedgeWastedSeconds() != b.HedgeWastedSeconds() {
		t.Error("gray counters diverged")
	}
	if a.FaultsInjected() == 0 {
		t.Fatal("no degraded faults injected at a substantial rate")
	}
	for _, fn := range a.funcs {
		if fn.served > 0 && float64(fn.hedges) > HedgeBudget*float64(fn.served)+1 {
			t.Errorf("%s: %d hedges over budget for %d served",
				fn.spec.Name, fn.hedges, fn.served)
		}
	}
}
