package platform

import (
	"fmt"
	"math"

	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/pipeline"
)

// RejectReason is the typed cause of an admission-time rejection,
// replacing the bare strings reject used to take: the reason selects
// the event kind, the per-reason counter, and the provenance label; the
// human-readable detail rides alongside.
type RejectReason int

const (
	// RejectShed: brownout priority shedding turned the request away.
	RejectShed RejectReason = iota
	// RejectDeadline: the completion estimate already missed the deadline.
	RejectDeadline
	numRejectReasons
)

// String names the reason for metrics labels and decision records.
func (r RejectReason) String() string {
	switch r {
	case RejectShed:
		return "shed-priority"
	case RejectDeadline:
		return "deadline-estimate"
	}
	return fmt.Sprintf("RejectReason(%d)", int(r))
}

// eventKind maps the reason to the lifecycle event it emits.
func (r RejectReason) eventKind() EventKind {
	if r == RejectShed {
		return EvShed
	}
	return EvReject
}

// This file integrates the overload-control subsystem
// (internal/overload) with the platform: SLO-aware admission at route,
// the node-pressure signal feeding the brownout ladder, and the
// ladder's effects — shortened keep-alive windows, early demotion,
// pipeline contraction, and priority shedding. Everything here is a
// no-op when the corresponding opts.Overload feature is off, keeping
// feature-off runs bit-for-bit identical.

// admissionReject decides whether rq is turned away at arrival. Shed
// rejections (brownout) are checked first, then the SLO-aware
// completion estimate. Returns true when the request was rejected and
// recorded.
func (p *Platform) admissionReject(rq *request) bool {
	oc := p.opts.Overload
	fn := rq.fn
	if oc.Brownout && p.ladder.Level() >= overload.LevelShed &&
		fn.spec.Priority < p.maxPriority {
		// With the swap tier on and pool headroom, prefer swapping an
		// idle model out of GPU memory over shedding this request: the
		// demotion frees capacity, and the request takes the normal
		// routing path instead of a rejection.
		if !p.trySwapRelief() {
			p.reject(rq, RejectShed, fmt.Sprintf("brownout %s: priority %d below %d",
				p.ladder.Level(), fn.spec.Priority, p.maxPriority), func() []decisions.KV {
				return []decisions.KV{
					kv("brownout", p.ladder.Level().String()),
					kvI("priority", fn.spec.Priority),
					kvI("floor", p.maxPriority),
					kvF("pressure", p.lastPressure),
				}
			})
			return true
		}
	}
	if !oc.Admission || fn.spec.SLO <= 0 {
		return false
	}
	est := p.completionEstimate(fn)
	if p.eng.Now()+est*overload.AdmissionSlack > rq.deadline {
		// Rejections are still demand: autoscaling must see them, or a
		// cold function whose whole first wave fast-fails never scales
		// up and rejects forever.
		fn.rejectDemand++
		p.kickScaleUp()
		p.reject(rq, RejectDeadline,
			fmt.Sprintf("estimated completion %.3fs past deadline", est), func() []decisions.KV {
				return []decisions.KV{
					kvF("estimate", est),
					kvF("slack", overload.AdmissionSlack),
					kvF("deadline", rq.deadline),
				}
			})
		return true
	}
	return false
}

// reject fast-fails a request at arrival: the record carries the
// rejection instant as its completion, so fast-fail latency is bounded
// (zero wait) and distinct from a timeout drop. inputs builds the Reject
// decision's inputs; it runs only while provenance is on.
func (p *Platform) reject(rq *request, why RejectReason, detail string, inputs func() []decisions.KV) {
	p.rejectReasons[why]++
	p.finishUnserved(why.eventKind(), detail, transition{
		rq: rq,
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindReject, Rule: why.String(), Outcome: detail,
				Inputs: inputs(),
			}
		},
	})
}

// RejectedByReason returns admission rejections keyed by typed reason.
func (p *Platform) RejectedByReason() map[string]int {
	out := make(map[string]int, numRejectReasons)
	for r := RejectReason(0); r < numRejectReasons; r++ {
		out[r.String()] = p.rejectReasons[r]
	}
	return out
}

// completionEstimate is the optimistic end-to-end estimate for a new
// request of fn, mirroring the routing order: the best exclusive
// instance with capacity, else the time-sharing binding's queue, else
// the scale-up path (a fresh instance plus the pending backlog ahead).
func (p *Platform) completionEstimate(fn *Function) float64 {
	now := p.eng.Now()
	best := math.Inf(1)
	for _, inst := range fn.instances {
		if !inst.hasCapacity() {
			continue
		}
		wait := inst.loadEndsAt - now
		if wait < 0 {
			wait = 0
		}
		est := wait + float64(inst.outstanding)*inst.plan.Bottleneck + inst.plan.Latency
		if est < best {
			best = est
		}
	}
	if b := fn.ts; b != nil && b.outstanding < b.capacity {
		ss := b.shared
		est := ss.queuedWork + ss.servingWork + b.estLoad() + b.execOn()
		if est < best {
			best = est
		}
	}
	if !math.IsInf(best, 1) {
		return best
	}
	// Scale-up path: a new instance must load and then chew through
	// the backlog ahead of this request. Optimistic about parallelism
	// (scale-up launches up to 4 instances a pass).
	exec := fn.bestExec()
	load := keepalive.ColdStartTime(fn.memGB)
	for _, last := range fn.lastNodeUse {
		if now-last < p.opts.KeepAlive {
			load = keepalive.WarmLoadTime(fn.memGB)
			break
		}
	}
	ahead := len(fn.pending)
	par := 4 * fn.bestCapacity(queueSlack)
	waves := float64(ahead / par)
	return load + exec + waves*exec
}

// bestExec is the function's fastest monolithic service time (its
// cheapest plan latency when it cannot run monolithically anywhere).
func (fn *Function) bestExec() float64 {
	if math.IsInf(fn.fastestMono, 1) {
		return fn.spec.SLO
	}
	return fn.fastestMono
}

// pressure is the node-pressure signal driving the brownout ladder:
// admitted plus pending demand over total admission capacity. 1.0
// means the backlog exactly fills what the deployed instances can
// admit; above that, requests are pending with nowhere to go. A
// platform with no capacity yet reports zero (it has not scaled up,
// not melted down).
func (p *Platform) pressure() float64 {
	capacity, load := 0, 0
	for _, fn := range p.funcs {
		load += len(fn.pending)
		for _, inst := range fn.instances {
			if inst.retiring {
				continue
			}
			capacity += inst.capacity
			load += inst.outstanding
		}
		if fn.ts != nil {
			capacity += fn.ts.capacity
			load += fn.ts.outstanding
		}
	}
	if capacity == 0 {
		return 0
	}
	return float64(load) / float64(capacity)
}

// brownoutTick samples pressure, advances the ladder, and applies the
// Degrade rung's contraction. Called from the control loop.
func (p *Platform) brownoutTick() {
	if !p.opts.Overload.Brownout {
		return
	}
	now := p.eng.Now()
	p.lastPressure = p.pressure()
	if from, to, changed := p.ladder.Observe(now, p.lastPressure); changed {
		change := fmt.Sprintf("%s -> %s", from, to)
		p.logEvent(EvBrownout, change, fmt.Sprintf("pressure %.2f", p.lastPressure), transition{
			decision: func() decisions.Record {
				return decisions.Record{
					Kind: decisions.KindBrownout, Subject: to.String(),
					Rule: "pressure ladder", Outcome: change,
					Inputs: []decisions.KV{kvF("pressure", p.lastPressure)},
				}
			},
		})
	}
	if p.ladder.Level() >= overload.LevelDegrade {
		p.contractPipelined()
	}
}

// Brownout keep-alive scaling per rung: under pressure, idle capacity
// must return to the free pool sooner. Indexed by overload.Level.
var (
	brownoutKeepAliveScale  = [4]float64{1, 0.25, 0.1, 0.05}
	brownoutIdleDemoteScale = [4]float64{1, 0.5, 0.25, 0.1}
)

// effKeepAlive is the keep-alive window after brownout scaling.
func (p *Platform) effKeepAlive() float64 {
	if !p.opts.Overload.Brownout {
		return p.opts.KeepAlive
	}
	return p.opts.KeepAlive * brownoutKeepAliveScale[p.ladder.Level()]
}

// effIdleDemote is the demotion idle threshold after brownout scaling.
func (p *Platform) effIdleDemote() float64 {
	if !p.opts.Overload.Brownout {
		return p.opts.IdleDemote
	}
	return p.opts.IdleDemote * brownoutIdleDemoteScale[p.ladder.Level()]
}

// contractPipelined is the Degrade rung's action: take the pipelined
// instance with the largest GPC footprint and replace it with a
// smaller deployment built from the node's free slices — monolithic on
// the smallest feasible slice, else a smaller pipeline from the
// CV-ranked partition list. The old instance drains and releases its
// slices; one contraction per control tick bounds the churn.
func (p *Platform) contractPipelined() {
	now := p.eng.Now()
	var worst *Instance
	for _, fn := range p.funcs {
		for _, inst := range fn.instances {
			if !inst.Pipelined() || inst.retiring || inst.migrating || inst.failed {
				continue
			}
			if worst == nil || inst.plan.GPCs() > worst.plan.GPCs() ||
				(inst.plan.GPCs() == worst.plan.GPCs() && inst.id < worst.id) {
				worst = inst
			}
		}
	}
	if worst == nil {
		return
	}
	fn := worst.fn
	free := worst.node.FreeSlices()

	// Monolithic on the smallest free slice that fits under the SLO.
	var plan pipeline.Plan
	var slices []*mig.Slice
	found := false
	for _, sl := range free {
		if sl.Type.GPCs() >= worst.plan.GPCs() {
			continue // must shrink the footprint
		}
		m := fn.mono(sl.Type)
		if !m.Fits(fn.spec.SLO) {
			continue
		}
		if found && sl.Type >= slices[0].Type {
			continue
		}
		plan, slices, found = m.Plan, []*mig.Slice{sl}, true
	}
	if !found {
		// Smaller pipeline over the free slices (the CV-ranked
		// enumerator's construction, reused).
		types := make([]mig.SliceType, len(free))
		for i, sl := range free {
			types[i] = sl.Type
		}
		pl, idx, err := fn.planner.Construct(types)
		if err == nil && pl.GPCs() < worst.plan.GPCs() {
			slices = make([]*mig.Slice, len(idx))
			for i, ai := range idx {
				slices[i] = free[ai]
			}
			plan, found = pl, true
		}
	}
	if !found {
		return
	}
	load := p.loadTimeFor(fn, worst.node, now)
	repl := p.launchInstance(fn, worst.node, plan, slices, load)
	worst.retiring = true
	p.logEvent(EvContract, worst.id,
		fmt.Sprintf("contracted %d->%d GPCs into %s", worst.plan.GPCs(), plan.GPCs(), repl.id), transition{})
	p.drainPending(repl, fn.admits.drainContract)
	if worst.outstanding == 0 {
		p.releaseInstance(worst)
	}
}
