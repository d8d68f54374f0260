package platform

import (
	"fmt"
	"strconv"
	"strings"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/pipeline"
)

// This file is the platform side of decision provenance
// (internal/obs/decisions): thin helpers the choice points call to
// record why they did what they did. The two hot choice points,
// admission routing and plan lookups, record typed facts against
// bodies registered once (wireDecisions) and IDs interned when an
// instance launches or a slice joins a pool; the rest build a Record.
// A lifecycle transition's record rides its event: logEvent runs the
// transition's decision builder. Everything is gated on
// Options.Decisions != nil — the nil path builds no arguments and
// allocates nothing, keeping recorder-off runs bit-identical
// (TestObserversDisabledIdentity).

// decOn reports whether decision provenance is being recorded.
func (p *Platform) decOn() bool { return p.opts.Decisions != nil }

// decide stamps rec with the current virtual time and records it, for
// the choice points no lifecycle event accompanies (hedge settlement,
// the time-sharing bind, the run-end drop). Call sites guard argument
// construction behind decOn themselves.
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

// admitBodies are one function's admission-record bodies: one per
// routing outcome whose text is fixed, and one per way a pending
// request is drained into new capacity (a drain record follows the
// request's "pending overflow" admission in its chain).
type admitBodies struct {
	exclusive, pending, freshTS           decisions.Body
	drainLaunch, drainSlack, drainTSSlack decisions.Body
	drainMigrate                          decisions.Body
}

// decideAdmit records one admission-routing decision for rq: every
// route() invocation (first attempt or retry re-route) produces exactly
// one Admit record (or a Reject from admission control), so a request's
// chain always opens with its admission fate per attempt. The recorder
// copies cands.
func (p *Platform) decideAdmit(rq *request, b decisions.Body, subject decisions.ID, cands []decisions.Cand) {
	p.opts.Decisions.Emit(p.eng.Now(), b, rq.id, rq.attempts, subject, cands)
}

// instCand is a scanned exclusive instance that did not admit, as the
// typed candidate the admit record carries.
func instCand(inst *Instance) decisions.Cand {
	if inst.retiring {
		return decisions.Cand{ID: inst.decID, Reason: decisions.ReasonRetiring}
	}
	return decisions.Cand{ID: inst.decID, Reason: decisions.ReasonAtCapacity,
		N: int32(len(inst.inflight)), M: int32(inst.capacity)}
}

// poolCandidates lists the invoker's other pool slices and why each was
// not the bind target. Only called while provenance is on.
func poolCandidates(inv *Invoker, fn *Function, chosen *sharedSlice) []decisions.Candidate {
	var cands []decisions.Candidate
	for _, ss := range inv.shared {
		if ss == chosen {
			continue
		}
		reason := fmt.Sprintf("queue %d", ss.queue.Len())
		if !fn.mono(ss.slice.Type).OK {
			reason = "type cannot host function"
		}
		cands = append(cands, decisions.Candidate{ID: ss.slice.ID(), Reason: reason})
	}
	return cands
}

// wireDecisions registers every function's admission bodies and
// attaches a provenance observer to its plan cache, so placement
// lookups record hit/miss/uncached with the signature and outcome the
// planner saw. Called from New only when provenance is on; without it
// the planner's observer stays nil and the lookup path is untouched.
func (p *Platform) wireDecisions() {
	dr := p.opts.Decisions
	for _, fn := range p.funcs {
		name := fn.spec.Name
		admit := func(rule, outcome string) decisions.Body {
			return dr.Body(decisions.Record{Kind: decisions.KindAdmit, Func: name, Rule: rule, Outcome: outcome})
		}
		drain := func(outcome string) decisions.Body { return admit("pending-overflow drain", outcome) }
		fn.admits = admitBodies{
			exclusive:    admit("first exclusive instance with capacity", "admitted to exclusive instance"),
			pending:      admit("no capacity anywhere", "pending overflow (scale-up kicked)"),
			freshTS:      admit("fresh time-sharing binding", "bound and enqueued on shared slice"),
			drainLaunch:  drain("admitted to freshly launched instance"),
			drainSlack:   drain("admitted on completion slack"),
			drainTSSlack: drain("enqueued on shared slice with new slack"),
			drainMigrate: drain("admitted to migration monolith"),
		}
		fn.planner.SetObserver(p.planObserver(name))
	}
}

// planObserver returns one function's plan-lookup observer.
//
// Lookups repeat the same few answers millions of times, so the
// observer memoizes one registered body per distinct observation: the
// key space is the planner's own signature key times the answer, and
// every later lookup with that key records the same body. A placement
// round probes node after node with the same multiset, so an
// observation equal to the previous one reuses its body without
// touching the memo. During a scale-up policy call the observer also
// hands each lookup's body, as asking again would record it, to the
// empty-round memo (emptyRound).
func (p *Platform) planObserver(funcName string) func(pipeline.PlanObservation) {
	memo := map[planMemoKey]decisions.Body{}
	var last pipeline.PlanObservation
	var lastBody decisions.Body
	seen := false
	body := func(o pipeline.PlanObservation) decisions.Body {
		if seen && o == last {
			return lastBody
		}
		kind, _ := planKind(o)
		key := planMemoKey{kind: kind, sig: o.Sig, slo: o.SLO, rank: o.Rank}
		if o.Err != nil {
			key.err = o.Err.Error()
		}
		b, ok := memo[key]
		if !ok {
			b = p.opts.Decisions.Body(renderPlanRecord(funcName, o))
			memo[key] = b
		}
		last, lastBody, seen = o, b, true
		return b
	}
	return func(o pipeline.PlanObservation) {
		p.decideShared(body(o))
		if m := &p.lastEmpty; m.capturing {
			// Asking again finds every signature cached.
			o.Cached = true
			m.bodies = append(m.bodies, body(o))
		}
	}
}

// decideShared records a platform-scoped decision whose every field
// but the time is body b's.
func (p *Platform) decideShared(b decisions.Body) {
	p.opts.Decisions.Emit(p.eng.Now(), b, decisions.NoRequest, 0, decisions.NoID, nil)
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

// planKind classifies a lookup as hit or miss and names the rule
// behind it.
func planKind(o pipeline.PlanObservation) (decisions.Kind, string) {
	if o.Cached {
		return decisions.KindPlanHit, "served from cache"
	}
	return decisions.KindPlanMiss, "constructed and cached"
}

// renderPlanRecord renders the body of one plan lookup's record.
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

// exportRunCounters publishes the end-of-run counters that previously
// lived only on the Platform struct into the trace recorder's metric
// surface: hedge economics, swap-tier traffic, per-node host-pool
// occupancy and the fragmentation index. Called once at the end of
// Run; a nil recorder skips everything.
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
	r.SetGauge("fluidfaas_swap_outs_total", float64(p.SwapOuts()))
	// Nothing swaps for relief any more. The gauge stays, a constant 0,
	// because bench/golden/seed42.json pins this export; delete it when
	// bench/ next changes.
	r.SetGauge("fluidfaas_swap_reliefs_total", 0)
	for _, inv := range p.inv {
		r.SetSeries("fluidfaas_host_pool_occupancy",
			"Host-memory pool occupancy (UsedGB/CapacityGB) per node at run end.",
			inv.node.Pool().Occupancy(),
			[2]string{"node", strconv.Itoa(inv.node.ID)})
	}
	r.SetGauge("fluidfaas_fragmentation_index_mean", p.Fragmentation.Mean())
	for i, t := range p.Fragmentation.Times {
		r.SetSeries("fluidfaas_fragmentation_index",
			"Cluster fragmentation index (stranded GPC fraction) sampled over the run.",
			p.Fragmentation.Values[i],
			[2]string{"t", strconv.FormatFloat(t, 'g', -1, 64)})
	}
}
