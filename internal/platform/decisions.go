package platform

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/pipeline"
)

// This file is the platform side of decision provenance
// (internal/obs/decisions): thin helpers the choice points call to
// record why they did what they did. Everything is gated on
// Options.Decisions != nil — the nil path builds no arguments and
// allocates nothing, keeping recorder-off runs bit-identical
// (TestObserversDisabledIdentity).

// decOn reports whether decision provenance is being recorded.
func (p *Platform) decOn() bool { return p.opts.Decisions != nil }

// decide stamps rec with the current virtual time and records it.
// Call sites guard argument construction behind decOn themselves.
func (p *Platform) decide(rec decisions.Record) {
	rec.Time = p.eng.Now()
	p.opts.Decisions.Record(rec)
}

// kv/kvF/kvI build decision inputs with deterministic rendering.
func kv(k, v string) decisions.KV { return decisions.KV{K: k, V: v} }

func kvF(k string, v float64) decisions.KV {
	return decisions.KV{K: k, V: strconv.FormatFloat(v, 'g', -1, 64)}
}

func kvI(k string, v int) decisions.KV {
	return decisions.KV{K: k, V: strconv.Itoa(v)}
}

// decideAdmit records one admission-routing decision for rq: every
// route() invocation (first attempt or retry re-route) produces exactly
// one Admit record (or a Reject from admission control), so a request's
// chain always opens with its admission fate per attempt.
func (p *Platform) decideAdmit(rq *request, rule, subject, outcome string, cands []decisions.Candidate) {
	p.decide(decisions.Record{
		Kind: decisions.KindAdmit, Func: rq.fn.spec.Name,
		Req: rq.id, Attempt: rq.attempts,
		Subject: subject, Rule: rule, Outcome: outcome,
		Candidates: cands,
	})
}

// decideDrain records a pending-overflow request finally finding a
// home: its chain already carries the "pending overflow" admission
// verdict, this is the placement that resolved it.
func (p *Platform) decideDrain(rq *request, subject, outcome string) {
	p.decideAdmit(rq, "pending-overflow drain", subject, outcome, nil)
}

// instCandReason says why a scanned exclusive instance did not admit.
func instCandReason(inst *Instance) string {
	if inst.retiring {
		return "retiring"
	}
	return "at capacity (" + strconv.Itoa(inst.outstanding) + "/" + strconv.Itoa(inst.capacity) + ")"
}

// poolCandidates lists the invoker's other pool slices and why each was
// not the bind target. Only called while provenance is on.
func poolCandidates(inv *Invoker, fn *Function, chosen *sharedSlice) []decisions.Candidate {
	var cands []decisions.Candidate
	for _, ss := range inv.shared {
		if ss == chosen {
			continue
		}
		reason := fmt.Sprintf("queue %d", ss.qlen())
		if !fn.mono(ss.slice.Type).OK {
			reason = "type cannot host function"
		}
		cands = append(cands, decisions.Candidate{ID: ss.slice.ID(), Reason: reason})
	}
	return cands
}

// wirePlanObservers attaches a provenance observer to every function's
// plan cache, so placement lookups record hit/miss/uncached with the
// signature and outcome the planner saw. Called from New only when
// provenance is on; without it the planner's observer stays nil and the
// lookup path is untouched.
//
// Lookups repeat the same few answers millions of times, so each
// function memoizes the rendered record per distinct observation: the
// key space is the planner's own signature key times the answer, and
// every later lookup with that key reuses the rendered Rule, Outcome
// and Inputs. The Inputs slice is therefore shared between records
// (decisions.Record documents it read-only). A placement round probes
// node after node with the same multiset, so an observation equal to
// the previous one reuses its record without touching the memo.
func (p *Platform) wirePlanObservers() {
	for _, fn := range p.funcs {
		fn.planner.SetObserver(p.planObserver(fn.spec.Name))
	}
}

// planObserver returns one function's memoizing plan-lookup observer.
// During a scale-up policy call it also hands each lookup's record, as
// asking again would render it, to the empty-round memo (emptyRound).
func (p *Platform) planObserver(funcName string) func(pipeline.PlanObservation) {
	memo := map[planMemoKey]decisions.Record{}
	var last pipeline.PlanObservation
	var lastRec decisions.Record
	seen := false
	render := func(o pipeline.PlanObservation) decisions.Record {
		if seen && o == last {
			return lastRec
		}
		kind, _ := planKind(o)
		key := planMemoKey{kind: kind, sig: o.Sig, slo: o.SLO, rank: o.Rank}
		if o.Err != nil {
			key.err = o.Err.Error()
		}
		rec, ok := memo[key]
		if !ok {
			rec = renderPlanRecord(funcName, o)
			memo[key] = rec
		}
		last, lastRec, seen = o, rec, true
		return rec
	}
	return func(o pipeline.PlanObservation) {
		p.decide(render(o))
		if m := &p.lastEmpty; m.capturing {
			// Asking again finds every cacheable signature cached.
			o.Cached = o.SigOK
			m.recs = append(m.recs, render(o))
		}
	}
}

// planMemoKey identifies a plan-lookup record up to its time and
// sequence number.
type planMemoKey struct {
	kind decisions.Kind
	sig  uint64
	slo  float64
	rank int
	err  string
}

// planKind classifies a lookup as hit, miss, or uncached (signature
// overflow bypasses the cache) and names the rule behind it.
func planKind(o pipeline.PlanObservation) (decisions.Kind, string) {
	switch {
	case !o.SigOK:
		return decisions.KindPlanUncached, "signature overflow"
	case o.Cached:
		return decisions.KindPlanHit, "served from cache"
	}
	return decisions.KindPlanMiss, "constructed and cached"
}

// renderPlanRecord renders the provenance record of one plan lookup
// (Time and Seq are stamped when it is recorded).
func renderPlanRecord(funcName string, o pipeline.PlanObservation) decisions.Record {
	kind, rule := planKind(o)
	outcome := "rank " + strconv.Itoa(o.Rank) + " plan"
	if o.Err != nil {
		outcome = "no feasible plan: " + o.Err.Error()
	}
	return decisions.Record{
		Kind: kind, Func: funcName, Req: decisions.NoRequest,
		Rule: rule, Outcome: outcome,
		Inputs: []decisions.KV{
			kv("sig", "0x"+strconv.FormatUint(o.Sig, 16)),
			kvF("slo", o.SLO),
		},
	}
}

// sliceIDs joins slice IDs for bind-decision inputs.
func sliceIDs(sls []*mig.Slice) string {
	ids := make([]string, len(sls))
	for i, sl := range sls {
		ids[i] = sl.ID()
	}
	return strings.Join(ids, "+")
}

// eventCat maps a lifecycle event to the trace category its instant is
// filed under, so health and swap instants can be filtered apart from
// ordinary lifecycle in the Chrome trace.
func eventCat(k EventKind) string {
	switch k {
	case EvDegrade, EvSliceSuspect, EvSliceQuarantine, EvRecover:
		return "health"
	case EvSwapIn, EvSwapOut:
		return "swap"
	}
	return "event"
}

// exportRunCounters publishes the end-of-run counters that previously
// lived only on the Platform struct into the trace recorder's metric
// surface: hedge economics, swap-tier traffic, per-node host-pool
// occupancy, per-slice health scores, and typed reject reasons. Called
// once at the end of Run; a nil recorder skips everything.
func (p *Platform) exportRunCounters() {
	r := p.opts.Obs
	if r == nil {
		return
	}
	r.SetGauge("fluidfaas_hedges_total", float64(p.Hedges()))
	r.SetGauge("fluidfaas_hedge_wins_total", float64(p.hedgeWins))
	r.SetGauge("fluidfaas_hedge_cancels_total", float64(p.hedgeCancels))
	r.SetGauge("fluidfaas_hedge_wasted_seconds_total", p.hedgeWastedSec)
	r.SetGauge("fluidfaas_swap_ins_total", float64(p.SwapIns()))
	r.SetGauge("fluidfaas_swap_outs_total", float64(p.swapOuts))
	r.SetGauge("fluidfaas_swap_reliefs_total", float64(p.swapReliefs))
	for _, inv := range p.inv {
		r.SetSeries("fluidfaas_host_pool_occupancy",
			"Host-memory pool occupancy (UsedGB/CapacityGB) per node at run end.",
			inv.node.Pool().Occupancy(),
			[2]string{"node", strconv.Itoa(inv.node.ID)})
	}
	ids := make([]string, 0, len(p.health))
	byID := make(map[string]*sliceHealth, len(p.health))
	for sl, h := range p.health {
		ids = append(ids, sl.ID())
		byID[sl.ID()] = h
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := byID[id]
		r.SetSeries("fluidfaas_slice_health_score",
			"Gray-failure health score (EWMA observed/declared exec ratio) per scored slice at run end.",
			h.score,
			[2]string{"slice", id}, [2]string{"state", healthStateName(h.state)})
	}
	for why := RejectReason(0); why < numRejectReasons; why++ {
		if p.rejectReasons[why] == 0 && !p.opts.Overload.Enabled() {
			continue
		}
		r.SetSeries("fluidfaas_rejects_total",
			"Admission fast-fails by typed reason.",
			float64(p.rejectReasons[why]),
			[2]string{"reason", why.String()})
	}
	r.SetGauge("fluidfaas_fragmentation_index_mean", p.Fragmentation.Mean())
	for i, t := range p.Fragmentation.Times {
		r.SetSeries("fluidfaas_fragmentation_index",
			"Cluster fragmentation index (stranded GPC fraction) sampled over the run.",
			p.Fragmentation.Values[i],
			[2]string{"t", strconv.FormatFloat(t, 'g', -1, 64)})
	}
}
