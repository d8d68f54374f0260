package platform

import (
	"fmt"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
)

// Hedged retries (gray-failure mitigation, stage 2): a request whose
// estimated finish on a *suspect* slice would miss its deadline
// launches a duplicate on healthy hardware. Both copies run; the first
// completion wins and is the request's one recorded sample, the loser
// is cancelled wherever it is (skipped in queue, swallowed at
// completion) and its spent execution/load lands in the wasted-work
// counter, never in the metrics. Hedges are charged against a
// per-function budget (HedgeBudget).

// hedgeState links the two copies of a hedged request. Exactly one of
// them wins (first through Platform.complete); the other's completion,
// drop or fault-retry is swallowed.
type hedgeState struct {
	primary *request
	clone   *request
	// winner is whichever copy completed first; nil while racing.
	winner *request
	// dead counts copies that lost their hardware while racing. When
	// both die the hedge is void and the last copy retries normally.
	dead int
}

// hedgeCancelled reports whether rq is the losing copy of a settled
// hedge: its partner already completed, so rq must produce no record
// and should stop consuming service as soon as it is noticed.
func (rq *request) hedgeCancelled() bool {
	h := rq.hedge
	return h != nil && h.winner != nil && h.winner != rq
}

// settleHedge runs in Platform.complete for hedged copies. The first
// copy through claims the win and is recorded normally (false). The
// loser's completion is swallowed (true): its spent work since
// admission is charged to the wasted-hedge counter and no sample is
// recorded — satellite invariant: one Completion per hedged request.
func (p *Platform) settleHedge(rq *request) (loser bool) {
	h := rq.hedge
	if h.winner == nil {
		h.winner = rq
		if rq == h.clone {
			p.hedgeWins++
		}
		if p.decOn() {
			outcome := "primary won"
			if rq == h.clone {
				outcome = "clone won"
			}
			p.decide(decisions.Record{
				Kind: decisions.KindHedgeSettle, Func: rq.fn.spec.Name,
				Req: rq.id, Attempt: rq.attempts,
				Rule: "first-completion-wins", Outcome: outcome,
			})
		}
		return false
	}
	if h.winner == rq {
		return false
	}
	p.chargeHedgeWaste(rq, "losing copy finished")
	return true
}

// chargeHedgeWaste books the losing copy's spent execution and load
// since its admission snapshot as wasted hedge work.
func (p *Platform) chargeHedgeWaste(rq *request, detail string) {
	wasted := (rq.rec.Exec - rq.snapExec) + (rq.rec.Load - rq.snapLoad)
	if wasted < 0 {
		wasted = 0
	}
	p.hedgeWastedSec += wasted
	p.hedgeCancels++
	p.logEvent(EvHedgeCancel, rq.fn.spec.Name,
		fmt.Sprintf("%s, %.3fs wasted", detail, wasted), transition{
			rq: rq,
			decision: func() decisions.Record {
				return decisions.Record{
					Kind: decisions.KindHedgeSettle, Rule: "loser-cancelled", Outcome: detail,
					Inputs: []decisions.KV{kvF("wasted", wasted)},
				}
			},
		})
}

// shouldHedge gates a hedge launch for rq currently placed on sl with
// the given estimated finish time: the slice must be suspect (healthy
// needs no hedge, quarantined hardware is already torn down), the
// request must be at genuine deadline risk and on its first attempt
// (fault retries already re-route; a retry's duplicate would double
// the retry), and the function must have hedge budget left.
func (p *Platform) shouldHedge(sl *mig.Slice, rq *request, estFinish float64) bool {
	if !p.hedgeOn() || rq.hedge != nil || rq.attempts > 0 {
		return false
	}
	if rq.fn.spec.SLO <= 0 || estFinish <= rq.deadline {
		return false
	}
	h := p.health[sl]
	if h == nil || h.state != sliceSuspect {
		return false
	}
	fn := rq.fn
	return float64(fn.hedges) < HedgeBudget*float64(fn.served+1)
}

// maybeHedgeTS considers hedging the job that just started service on a
// shared slice.
func (p *Platform) maybeHedgeTS(ss *sharedSlice, rq *request, estFinish float64) {
	if p.shouldHedge(ss.slice, rq, estFinish) {
		p.launchHedge(rq, nil, ss)
	}
}

// maybeHedgeInstance considers hedging a request just admitted to an
// exclusive instance: if any of the instance's slices is suspect, the
// finish estimate stretches the plan latency by that slice's score.
func (p *Platform) maybeHedgeInstance(inst *Instance, rq *request) {
	if !p.hedgeOn() || rq.hedge != nil {
		return
	}
	var worst *sliceHealth
	var worstSl *mig.Slice
	for _, sl := range inst.slices {
		if h := p.health[sl]; h != nil && h.state == sliceSuspect {
			if worst == nil || h.score > worst.score {
				worst, worstSl = h, sl
			}
		}
	}
	if worst == nil {
		return
	}
	now := p.eng.Now()
	loadWait := inst.loadEndsAt - now
	if loadWait < 0 {
		loadWait = 0
	}
	est := now + loadWait +
		float64(inst.outstanding-1)*inst.plan.Bottleneck +
		inst.plan.Latency*worst.score
	if p.shouldHedge(worstSl, rq, est) {
		p.launchHedge(rq, inst, nil)
	}
}

// launchHedge duplicates rq onto healthy hardware, avoiding wherever
// the primary sits. Targets in routing order: an exclusive instance
// with capacity whose slices are all clean, then the function's
// time-sharing binding if it lives on a clean slice. If no clean target
// exists the hedge silently does not launch — duplicating onto equally
// suspect hardware buys nothing.
func (p *Platform) launchHedge(rq *request, avoidInst *Instance, avoidShared *sharedSlice) {
	fn := rq.fn
	clone := &request{
		id:       rq.id,
		fn:       fn,
		arrival:  rq.arrival,
		deadline: rq.deadline,
		rec: metrics.RequestRecord{
			ID:      rq.rec.ID,
			Func:    rq.rec.Func,
			Arrival: rq.rec.Arrival,
			SLO:     rq.rec.SLO,
		},
	}
	for _, inst := range fn.instances {
		if inst == avoidInst || inst.failed || !inst.hasCapacity() {
			continue
		}
		if !p.instanceSlicesClean(inst) {
			continue
		}
		p.armHedge(rq, clone, inst.id, false)
		inst.admit(p, clone)
		return
	}
	if b := fn.ts; b != nil && b.shared != avoidShared && !b.shared.failed &&
		b.outstanding < b.capacity && p.sliceClean(b.shared.slice) {
		p.armHedge(rq, clone, b.shared.slice.ID(), true)
		// The clone queues in deadline order like any other request of
		// the function.
		b.shared.enqueue(p, b, clone)
		return
	}
}

// armHedge links the two copies, charges the function's budget and
// logs the hedge onto target, an exclusive instance's ID or, when
// shared, a pool slice's (the EvHedge tally is the platform's hedge
// count).
func (p *Platform) armHedge(rq, clone *request, target string, shared bool) {
	h := &hedgeState{primary: rq, clone: clone}
	rq.hedge, clone.hedge = h, h
	fn := rq.fn
	fn.hedges++
	clone.waitStart = p.eng.Now()
	onto, outcome := target, "duplicated onto clean exclusive instance"
	if shared {
		onto, outcome = "shared "+target, "duplicated onto clean shared slice"
	}
	p.logEvent(EvHedge, fn.spec.Name,
		fmt.Sprintf("request %d duplicated onto %s", rq.id, onto), transition{
			rq: rq,
			decision: func() decisions.Record {
				return decisions.Record{
					Kind: decisions.KindHedgeSpawn, Subject: target,
					Rule: "deadline at risk on suspect slice", Outcome: outcome,
					Inputs: []decisions.KV{
						kvI("budget_used", fn.hedges),
						kvI("served", fn.served),
					},
				}
			},
		})
}

// sliceClean reports whether a slice is a sound hedge target: usable
// hardware with no adverse health evidence.
func (p *Platform) sliceClean(sl *mig.Slice) bool {
	if !sl.Usable() {
		return false
	}
	h := p.health[sl]
	return h == nil || h.state == sliceHealthy
}

// instanceSlicesClean reports whether every slice of an instance is a
// sound hedge target.
func (p *Platform) instanceSlicesClean(inst *Instance) bool {
	for _, sl := range inst.slices {
		if !p.sliceClean(sl) {
			return false
		}
	}
	return true
}

// Hedges returns how many hedged duplicates launched.
func (p *Platform) Hedges() int { return p.tally[EvHedge] }

// HedgeWins returns how many hedged requests the duplicate won (the
// clone completed before the primary).
func (p *Platform) HedgeWins() int { return p.hedgeWins }

// HedgeCancels returns how many losing hedge copies were cancelled or
// swallowed.
func (p *Platform) HedgeCancels() int { return p.hedgeCancels }

// HedgeWastedSeconds returns the execution+load seconds losing hedge
// copies burned — the price paid for the tail-latency insurance,
// bounded by the per-function budget.
func (p *Platform) HedgeWastedSeconds() float64 { return p.hedgeWastedSec }
