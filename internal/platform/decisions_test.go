package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
)

// richOptions is a configuration exercising every decision point at
// once: gray scoring with hedging, degraded faults with retries,
// the swap tier, and full overload control.
func richOptions(dec *decisions.Recorder) Options {
	return Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 7,
		Faults:    &faults.Spec{DegradedRate: 0.05, DegradedMTTR: 60, SliceRate: 0.02, SliceMTTR: 30},
		Gray:      GrayOptions{Enabled: true, Hedge: true},
		Swap:      SwapOptions{Enabled: true},
		Overload:  overload.Config{Admission: true},
		Decisions: dec,
	}
}

// rigProbation is the quarantine probation the rich-run goldens were
// recorded with; the product value is grayProbation.
const rigProbation = 10

// newRich builds a platform over the default cluster with opts (a
// richOptions configuration) and sets its quarantine probation to
// rigProbation.
func newRich(specs []FunctionSpec, opts Options) *Platform {
	p := New(cluster.New(cluster.DefaultSpec()), specs, opts)
	p.probation = rigProbation
	return p
}

// TestDecisionChains: every request in a full multi-subsystem run has a
// decision chain; each chain opens with the admission verdict (admit or
// reject), is strictly seq-ordered, and hedge spawns are eventually
// settled within the same chain.
func TestDecisionChains(t *testing.T) {
	dec := decisions.NewRecorder(0)
	p := runRich(t, Options{Decisions: dec})

	total := p.Collector().Len()
	if total == 0 || dec.Total() == 0 {
		t.Fatalf("empty run: %d requests, %d decisions", total, dec.Total())
	}
	reqs := dec.Requests()
	if len(reqs) != total {
		t.Fatalf("chains for %d of %d requests", len(reqs), total)
	}
	hedged := 0
	for _, id := range reqs {
		chain := dec.Chain(id)
		if len(chain) == 0 {
			t.Fatalf("req %d: empty chain", id)
		}
		if k := chain[0].Kind; k != decisions.KindAdmit && k != decisions.KindReject {
			t.Fatalf("req %d: chain opens with %v, want admit or reject", id, k)
		}
		spawns, settles := 0, 0
		for i, rec := range chain {
			if rec.Req != id {
				t.Fatalf("req %d: foreign record %+v", id, rec)
			}
			if i > 0 && rec.Seq <= chain[i-1].Seq {
				t.Fatalf("req %d: chain not seq-ordered", id)
			}
			switch rec.Kind {
			case decisions.KindHedgeSpawn:
				spawns++
			case decisions.KindHedgeSettle:
				settles++
			}
		}
		if spawns > 0 {
			hedged++
			if settles == 0 {
				t.Errorf("req %d: %d hedge spawns never settled", id, spawns)
			}
		}
	}
	if p.Hedges() > 0 && hedged == 0 {
		t.Error("platform hedged but no chain carries a hedge-spawn record")
	}
	counts := dec.Counts()
	if counts["admit"] == 0 || counts["plan-miss"] == 0 {
		t.Errorf("expected admit and plan-miss decisions, got %v", counts)
	}
	if p.Rejected() > 0 && counts["reject"] == 0 {
		t.Errorf("%d rejections but no reject decisions", p.Rejected())
	}
	if p.FaultsInjected() == 0 {
		t.Fatal("no faults injected; the chain test lost its retry coverage")
	}
}

// TestQuarantineFreezesRing: a quarantine is an anomaly — it must
// freeze the decision ring into a dump whose records include the
// quarantine verdict itself.
func TestQuarantineFreezesRing(t *testing.T) {
	dec := decisions.NewRecorder(0)
	specs := specsFor(t, dnn.Small)[:1]
	cl := smallCluster(1)
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1,
		Gray: GrayOptions{Enabled: true}, Decisions: dec,
	})
	inv, fn := p.inv[0], p.funcs[0]
	b := inv.bindTS(fn)
	if b == nil {
		t.Fatal("bindTS failed")
	}
	sl := b.shared.slice
	for i := 0; i < 3; i++ {
		p.observeSliceExec(sl, 1, 2)
	}
	p.observeSliceExec(sl, 1, 8)
	if p.Quarantines() != 1 {
		t.Fatalf("quarantines = %d, want 1", p.Quarantines())
	}
	if dec.Freezes() != 1 {
		t.Fatalf("freezes = %d, want 1", dec.Freezes())
	}
	dumps := dec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	found := false
	for _, rec := range dumps[0].Records {
		if rec.Kind == decisions.KindQuarantine {
			found = true
		}
	}
	if !found {
		t.Error("frozen dump does not contain the quarantine decision")
	}
	if counts := dec.Counts(); counts["suspect"] == 0 || counts["quarantine"] != 1 {
		t.Errorf("counts = %v, want suspect>0 and quarantine=1", counts)
	}
}

// wantPlanRecord renders a plan-lookup record from scratch, with no
// memo: the oracle for the platform's memoizing observer.
func wantPlanRecord(funcName string, o pipeline.PlanObservation) decisions.Record {
	kind := decisions.KindPlanMiss
	rule := "constructed and cached"
	switch {
	case !o.SigOK:
		kind = decisions.KindPlanUncached
		rule = "signature overflow"
	case o.Cached:
		kind = decisions.KindPlanHit
		rule = "served from cache"
	}
	outcome := fmt.Sprintf("rank %d plan", o.Rank)
	if o.Err != nil {
		outcome = "no feasible plan: " + o.Err.Error()
	}
	return decisions.Record{
		Kind: kind, Func: funcName, Req: decisions.NoRequest,
		Rule: rule, Outcome: outcome,
		Inputs: []decisions.KV{
			{K: "sig", V: "0x" + strconv.FormatUint(o.Sig, 16)},
			{K: "slo", V: strconv.FormatFloat(o.SLO, 'g', -1, 64)},
		},
	}
}

// TestPlanProvenanceMemo: the memoizing plan-lookup observer records
// exactly what a fresh rendering would, for every lookup kind, for
// failed constructions that differ only in their error text, and for
// two SLOs sharing one signature; repeated keys reuse one Inputs slice.
func TestPlanProvenanceMemo(t *testing.T) {
	dec := decisions.NewRecorder(0)
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1, Decisions: dec,
	})
	observe := p.planObserver("bert")
	errA := errors.New("pipeline: no partition fits the available slices")
	errB := errors.New("pipeline: stage 1 cannot run on 1g.10gb")
	script := []pipeline.PlanObservation{
		{SigOK: true, Sig: 0x1f3, SLO: 0.5, Rank: 2},               // miss
		{Cached: true, SigOK: true, Sig: 0x1f3, SLO: 0.5, Rank: 2}, // hit
		{Cached: true, SigOK: true, Sig: 0x1f3, SLO: 0.5, Rank: 2}, // hit, memoized
		{SLO: 0.5, Rank: 0}, // uncached
		{SLO: 0.5, Rank: 0}, // uncached, memoized
		{SigOK: true, Sig: 0x2a, SLO: 0.5, Rank: -1, Err: errA},
		{SigOK: true, Sig: 0x2a, SLO: 0.5, Rank: -1, Err: errB},
		{Cached: true, SigOK: true, Sig: 0x2a, SLO: 0.5, Rank: -1, Err: errA},
		{SigOK: true, Sig: 0x1f3, SLO: 1.25, Rank: 2}, // same signature and rank, other SLO
		{Cached: true, SigOK: true, Sig: 0x1f3, SLO: 1.25, Rank: 2},
		{Cached: true, SigOK: true, Sig: 0x1f3, SLO: 0.5, Rank: 2},
		{SigOK: true, Sig: 0x3c, SLO: 0.5, Rank: 2}, // other signature, same answer
	}
	for _, o := range script {
		observe(o)
	}
	got := dec.Snapshot()
	if len(got) != len(script) {
		t.Fatalf("%d records for %d lookups", len(got), len(script))
	}
	for i, o := range script {
		want := wantPlanRecord("bert", o)
		want.Seq, want.Time = got[i].Seq, got[i].Time
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lookup %d: record\n %+v\nwant\n %+v", i, got[i], want)
		}
	}
	shared := func(i, j int) bool { return &got[i].Inputs[0] == &got[j].Inputs[0] }
	if !shared(1, 2) || !shared(1, 10) || !shared(3, 4) {
		t.Error("repeated lookups did not reuse the memoized rendering")
	}
	if shared(0, 1) || shared(0, 11) || shared(5, 6) || shared(1, 9) || shared(5, 7) {
		t.Error("distinct lookups share a rendering")
	}
}

// skippingPlatform builds a one-function platform with decisions on and
// n hand-built exclusive instances, each at capacity 2/2. Its policy
// never time-shares, and the scale-up kick counts as already queued, so
// a route() pass scans every instance and parks the request pending.
func skippingPlatform(t *testing.T, n int) (*Platform, *decisions.Recorder) {
	t.Helper()
	dec := decisions.NewRecorder(0)
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.ESG{}, Seed: 1, Decisions: dec,
	})
	fn := p.funcs[0]
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s#x%d", fn.spec.Name, i)
		fn.instances = append(fn.instances, &Instance{
			id: id, decID: dec.Intern(id), fn: fn, capacity: 2, outstanding: 2,
		})
	}
	p.scaleKick = true
	return p, dec
}

// TestRouteAllocsIndependentOfSkipped: with decisions on, a route()
// pass that passes over n at-capacity instances allocates nothing that
// grows with n — each candidate is a typed fact in a reused buffer,
// copied into the recorder's chunked arena.
func TestRouteAllocsIndependentOfSkipped(t *testing.T) {
	allocs := func(n int) float64 {
		p, dec := skippingPlatform(t, n)
		rq := &request{fn: p.funcs[0]}
		got := testing.AllocsPerRun(200, func() {
			rq.id++
			p.route(rq)
		})
		if c := dec.Chain(rq.id); len(c) != 1 || len(c[0].Candidates) != n {
			t.Fatalf("n=%d: chain %+v, want one admit with %d candidates", n, c, n)
		}
		return got
	}
	if few, many := allocs(4), allocs(64); many != few {
		t.Errorf("route allocates %v times passing over 64 instances, %v passing over 4", many, few)
	}
}

// TestAdmitCandidatesRenderAtDecisionTime: a candidate's counts are
// captured when the admit is made, so an instance whose load changes
// afterwards still reads as it was in the chain, the export and a
// freeze taken later.
func TestAdmitCandidatesRenderAtDecisionTime(t *testing.T) {
	p, dec := skippingPlatform(t, 2)
	fn := p.funcs[0]
	fn.instances[1].retiring = true
	p.route(&request{id: 7, fn: fn})
	fn.instances[0].outstanding, fn.instances[1].retiring = 1, false
	want := []decisions.Candidate{
		{ID: fn.instances[0].id, Reason: "at capacity (2/2)"},
		{ID: fn.instances[1].id, Reason: "retiring"},
	}
	check := func(where string, recs []decisions.Record) {
		t.Helper()
		if len(recs) == 0 || !reflect.DeepEqual(recs[len(recs)-1].Candidates, want) {
			t.Errorf("%s: %+v, want candidates %+v", where, recs, want)
		}
	}
	check("chain", dec.Chain(7))
	dec.Freeze(1, "test")
	check("dump", dec.Dumps()[0].Records)
	var buf bytes.Buffer
	if err := dec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var exp decisions.Export
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	check("export", exp.Records)
	check("export dump", exp.Dumps[0].Records)
}
