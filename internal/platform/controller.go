package platform

import (
	"fmt"
	"math"
	"slices"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/scheduler"
)

// route is the FFS load balancer (§5.3): requests go to exclusive-hot
// instances in ascending latency order until their serving capacity is
// reached, then to the time-sharing instance, then pend (triggering
// scale-up).
func (p *Platform) route(rq *request) {
	fn := rq.fn
	// Tracing: the attempt's queue span starts here (arrival, or the
	// retry re-route instant). Pure bookkeeping, no behaviour.
	rq.waitStart = p.eng.Now()
	if p.admissionReject(rq) {
		return
	}
	// Decision provenance: each route() pass records exactly one Admit
	// with the instances it passed over (and why) as candidates. The
	// record is made before admit/enqueue so a request's chain reads
	// admission first, then whatever the admission triggered.
	// Passed-over candidates are typed facts gathered in a reused
	// buffer; route is never re-entered before its record is made.
	dec := p.decOn()
	cands := p.candBuf[:0]
	for k, inst := range p.routedInstances(fn) {
		if inst.hasCapacity() {
			if dec {
				p.decideAdmit(rq, fn.admits.exclusive, inst.decID, cands)
			}
			inst.admit(p, rq)
			p.advanceRoundRobin(fn, k)
			return
		}
		if dec {
			cands = append(cands, instCand(inst))
			p.candBuf = cands
		}
	}
	if fn.ts != nil && fn.ts.outstanding < fn.ts.capacity {
		if dec {
			b := p.opts.Decisions.Body(decisions.Record{
				Kind: decisions.KindAdmit, Func: fn.spec.Name,
				Rule: "existing time-sharing binding",
				Outcome: fmt.Sprintf("enqueued on shared slice (%d/%d outstanding)",
					fn.ts.outstanding, fn.ts.capacity),
			})
			p.decideAdmit(rq, b, fn.ts.shared.decID, cands)
		}
		fn.ts.shared.enqueue(p, fn.ts, rq)
		return
	}
	if dec && fn.ts != nil {
		cands = append(cands, decisions.Cand{
			ID: fn.ts.shared.decID, Reason: decisions.ReasonTSAtCapacity,
			N: int32(fn.ts.outstanding), M: int32(fn.ts.capacity),
		})
		p.candBuf = cands
	}
	// FluidFaaS: the first request creates a time-sharing instance
	// (Fig. 8 transition 1).
	if p.opts.Policy.TimeSharing() && fn.ts == nil {
		if inv := p.pickInvokerForTS(fn); inv != nil {
			if b := inv.bindTS(fn); b != nil {
				if dec {
					p.decideAdmit(rq, fn.admits.freshTS, b.shared.decID, cands)
				}
				b.shared.enqueue(p, b, rq)
				return
			}
		}
	}
	if dec {
		p.decideAdmit(rq, fn.admits.pending, decisions.NoID, cands)
	}
	fn.pushPending(rq)
	p.kickScaleUp()
}

// routedInstances returns the function's exclusive instances in the
// configured routing order. fn.instances is kept latency-ascending, so
// the default order is a plain view. The call is a pure inspection: for
// round-robin it reads the cursor without advancing it — the cursor
// moves only when a request actually lands (advanceRoundRobin), so
// saturated instances and inspection-only calls cannot skew the
// rotation.
func (p *Platform) routedInstances(fn *Function) []*Instance {
	switch p.opts.Routing {
	case RouteLatencyDesc:
		out := make([]*Instance, len(fn.instances))
		for i, inst := range fn.instances {
			out[len(out)-1-i] = inst
		}
		return out
	case RouteRoundRobin:
		n := len(fn.instances)
		if n == 0 {
			return nil
		}
		start := fn.rrNext % n
		out := make([]*Instance, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, fn.instances[(start+i)%n])
		}
		return out
	default:
		return fn.instances
	}
}

// advanceRoundRobin moves the round-robin cursor past the instance that
// just admitted a request: k is the instance's position in the order
// routedInstances returned, so the next request starts its scan at the
// instance after the one that served.
func (p *Platform) advanceRoundRobin(fn *Function, k int) {
	if p.opts.Routing != RouteRoundRobin {
		return
	}
	if n := len(fn.instances); n > 0 {
		fn.rrNext = (fn.rrNext%n + k + 1) % n
	}
}

// kickScaleUp coalesces an immediate scale-up pass (cold starts should
// not wait for the next control period).
func (p *Platform) kickScaleUp() {
	if p.scaleKick {
		return
	}
	p.scaleKick = true
	p.eng.Rearm(&p.kick, p.eng.Now(), p.kickFn)
}

// kicked runs the coalesced scale-up pass kickScaleUp scheduled.
func (p *Platform) kicked() {
	p.scaleKick = false
	p.scaleUp()
}

// pickInvokerForTS picks the node for a new time-sharing binding: the
// invoker whose pool already has a fitting slice with the shortest
// queue, else the node with the most free compute.
func (p *Platform) pickInvokerForTS(fn *Function) *Invoker {
	var best *Invoker
	bestQ := math.MaxInt32
	for _, inv := range p.inv {
		if !inv.node.Healthy() {
			continue
		}
		if ss := inv.pickSharedSlice(fn); ss != nil && ss.qlen() < bestQ {
			best = inv
			bestQ = ss.qlen()
		}
	}
	if best != nil {
		return best
	}
	for _, inv := range p.inv {
		if !inv.node.Healthy() {
			continue
		}
		if best == nil || inv.node.FreeGPCs() > best.node.FreeGPCs() {
			best = inv
		}
	}
	return best
}

// controlTick is the controller loop: autoscale up, manage keep-alive
// states, maintain the time-sharing pools, drop hopeless requests.
func (p *Platform) controlTick() {
	p.scaleUp()
	if p.swapOn() {
		p.decayLoadChurn()
	}
	p.manageKeepAlive()
	for _, inv := range p.inv {
		inv.maintainPool()
	}
	p.dropStalePending()
}

// scaleUp launches instances for pending demand and hot time-sharing
// functions, via the policy's placement (ESG's A*, FluidFaaS's
// CV-ranked construction, INFless's greedy).
func (p *Platform) scaleUp() {
	now := p.eng.Now()
	// Scratch buffers: scaleUp runs every control tick and on every
	// cold-start kick, so rebuilding these from nil dominated the
	// platform's allocation profile. No policy retains the request
	// slice past PlaceBatch, so reuse is safe.
	reqs := p.scratchReqs[:0]
	reqFns := p.scratchFns[:0]
	defer func() {
		p.scratchReqs = reqs[:0]
		p.scratchFns = reqFns[:0]
	}()
	for _, fn := range p.funcs {
		if len(fn.instances) >= maxInstancesPerFunc {
			continue
		}
		want := 0
		// Admission fast-fails are demand too: without counting them, a
		// function whose whole overflow is rejected at arrival would
		// never trigger scale-up. Zero when admission control is off.
		demand := len(fn.pending) + fn.rejectDemand
		fn.rejectDemand = 0
		if demand > 0 {
			// An overloaded but not-hot time-sharing function gets more
			// pool slices, not an exclusive instance (§5.3: "the number
			// of MIG slices allocated to time sharing state instances
			// increases if they are overloaded").
			if p.opts.Policy.TimeSharing() && fn.ts != nil && !fn.ts.tracker.IsHot(now) {
				if !fn.ts.everLoaded {
					// The binding is still cold-loading. A trickle of
					// overflow waits it out (launching now would just
					// pay a second cold start); only clear demand
					// (several requests' worth) scales up in parallel.
					if demand <= 2 {
						continue
					}
				} else {
					// Overloaded but not hot: grow the pool (§5.3).
					// rebindToFreshSlice drains pending itself.
					before := len(fn.pending)
					fn.ts.shared.inv.rebindToFreshSlice(fn)
					demand -= before - len(fn.pending)
					if demand <= 0 {
						continue
					}
					// Pool growth was insufficient; fall through to
					// exclusive scale-up.
				}
			}
			want = int(math.Ceil(float64(demand) / float64(fn.bestCapacity(queueSlack))))
			if want > 4 {
				want = 4
			}
		} else if p.swapOn() && p.opts.Policy.TimeSharing() && fn.ts != nil &&
			len(fn.instances) == 0 && fn.ts.everLoaded && fn.ts.hostMemGB > 0 &&
			fn.ts.loadChurn >= swapChurnPromote*keepalive.SwapInTime(fn.memGB) {
			// Swap-aware churn response: the binding keeps re-paying
			// swap-ins because its slice's working set exceeds residency.
			// Cheap warm reloads keep every queue just short of the
			// pending-overflow trigger, so the pool never grows and the
			// slice sits in a metastable churn regime (the expensive cold
			// reload the legacy path pays here overflows the queue and
			// escapes it — the tier must not be worse than that). Spread
			// the binding to its own pool slice; if it is already alone,
			// promote it — the pool holds a materialised copy, so the
			// launch costs one swap-in, not a refetch. Checked before the
			// hotness promotion: a churning binding often IS hot (all that
			// reload time counts nothing, but the execs add up), and the
			// exclusive launch the hotness rung asks for rarely places
			// while the churn holds every medium slice busy.
			if len(fn.ts.shared.bindings) > 1 {
				inv := fn.ts.shared.inv
				ok := inv.rebindToFreshSlice(fn)
				if !ok && inv.reclaimIdle() > 0 {
					// Idle pool slices (stale bindings riding out the
					// keep-alive window) must not pin a churning binding
					// to a shared slice; reclaim them and retry.
					ok = inv.rebindToFreshSlice(fn)
				}
				if ok {
					fn.ts.loadChurn = 0
					p.logEvent(EvPromote, fn.spec.Name, "reload churn: spread to own pool slice", transition{})
				}
				// Otherwise: no slice to spread to; keep the churn and
				// retry next tick.
			} else {
				fn.ts.loadChurn = 0
				want = 1
				p.logEvent(EvPromote, fn.spec.Name, "reload churn on shared slice", transition{})
			}
		} else if p.opts.Policy.TimeSharing() && fn.ts != nil &&
			len(fn.instances) == 0 && fn.ts.tracker.IsHot(now) {
			// Fig. 8 transition 2: hot time-sharing function gets an
			// exclusive instance.
			want = 1
			p.logEvent(EvPromote, fn.spec.Name, "time-sharing binding is hot", transition{})
		}
		for i := 0; i < want; i++ {
			reqs = append(reqs, scheduler.Req{
				Func:    fn.spec.ID,
				DAG:     fn.spec.DAG,
				Parts:   fn.spec.Parts,
				SLO:     fn.spec.SLO,
				Planner: fn.planner,
			})
			reqFns = append(reqFns, fn)
		}
	}
	if len(reqs) == 0 {
		return
	}
	gen := p.cl.FreeGen()
	var placements []scheduler.Placement
	var phys [][]*mig.Slice
	if p.lastEmpty.matches(reqFns, gen) {
		// The policy already answered these inputs with nothing; see
		// emptyRound. Re-emit the plan lookups asking again would record.
		for _, b := range p.lastEmpty.bodies {
			p.decideShared(b)
		}
	} else {
		var views []scheduler.NodeFree
		views, phys = p.nodeFreeViews()
		p.lastEmpty.start()
		placements = p.opts.Policy.PlaceBatch(reqs, views)
		p.lastEmpty.finish(len(placements) == 0, reqFns, gen)
	}
	if len(placements) < len(reqs) && p.opts.Policy.TimeSharing() {
		// Some demand went unplaced: reclaim idle pool slices so the
		// next round has them (the time-sharing pool must shrink when
		// exclusive demand needs the slices, §5.3).
		for _, inv := range p.inv {
			inv.reclaimIdle()
		}
	}
	for _, pl := range placements {
		fn := reqFns[pl.Req]
		nodeIdx := pl.Node // views carry real node IDs == invoker index
		inv := p.inv[nodeIdx]
		slices := make([]*mig.Slice, len(pl.SliceIdx))
		for i, si := range pl.SliceIdx {
			slices[i] = phys[nodeIdx][si]
		}
		load := p.loadTimeFor(fn, inv.node, now)
		inst := p.launchInstance(fn, inv.node, pl.Plan, slices, load)
		// Drain pending into the new (still loading) instance.
		p.drainPending(inst, fn.admits.drainLaunch)
	}
}

// emptyRound remembers the last scale-up round whose PlaceBatch placed
// nothing: the round's requests and the cluster's free-set generation
// (cluster.Cluster.FreeGen). Every change that can alter a node's free
// slices advances the generation, so an equal generation means every
// node view is the one the policy saw. A round with the same requests
// and generation gets the same empty answer without building the views
// or asking the policy, because policies are pure functions of (reqs,
// views).
//
// Plan-lookup provenance stays byte-identical: while the policy runs,
// the planners' observers append to bodies what asking again would
// record (every lookup whose signature is cached becomes a hit), and a
// skipped round re-emits bodies in order. With provenance off no
// observer is wired and bodies stays empty.
type emptyRound struct {
	held      bool
	capturing bool
	fns       []*Function
	gen       uint64
	bodies    []decisions.Body
}

// matches reports whether a round with these requests at free-set
// generation gen is the remembered empty one.
func (m *emptyRound) matches(fns []*Function, gen uint64) bool {
	return m.held && gen == m.gen && slices.Equal(fns, m.fns)
}

// start opens a policy call: the plan lookups it makes are captured.
func (m *emptyRound) start() {
	m.bodies = m.bodies[:0]
	m.capturing = true
}

// finish closes a policy call and remembers its inputs if it placed
// nothing; any other answer forgets the last empty round.
func (m *emptyRound) finish(empty bool, fns []*Function, gen uint64) {
	m.capturing = false
	m.held = empty
	if !empty {
		return
	}
	m.fns = append(m.fns[:0], fns...)
	m.gen = gen
}

// bestCapacity estimates how many requests one new instance can absorb.
func (fn *Function) bestCapacity(slack float64) int {
	if math.IsInf(fn.fastestMono, 1) {
		return 1
	}
	return admissionCapacity(fn.spec.SLO, fn.fastestMono, slack)
}

// manageKeepAlive applies the per-policy keep-alive rules: FluidFaaS
// demotes cool exclusive instances to time sharing (Fig. 8 transition
// 3); the baselines hold slices exclusively until the keep-alive
// timeout expires (the policy §4 criticises).
func (p *Platform) manageKeepAlive() {
	now := p.eng.Now()
	for _, fn := range p.funcs {
		insts := append([]*Instance(nil), fn.instances...)
		for _, inst := range insts {
			if inst.retiring || inst.outstanding > 0 {
				continue
			}
			if p.opts.Policy.TimeSharing() {
				if inst.tracker.IdleFor(now) >= p.opts.IdleDemote &&
					!inst.tracker.IsHot(now) {
					p.demote(inst)
				}
			} else {
				if inst.tracker.IdleFor(now) >= p.opts.KeepAlive {
					p.releaseInstance(inst)
				}
			}
		}
	}
}

// demote turns a cool exclusive instance into time-sharing state. A
// monolithic instance's slice is adopted into the pool with the model
// still resident (zero-cost demotion); a pipelined instance's slices
// are released and the function keeps a warm binding.
func (p *Platform) demote(inst *Instance) {
	fn := inst.fn
	inv := p.invokerOf(inst.node)
	adopt := fn.ts == nil && !inst.Pipelined()
	p.logEvent(EvDemote, inst.id, "idle below hotness threshold", transition{
		decision: func() decisions.Record {
			outcome := "slices released, warm binding kept"
			if adopt {
				outcome = "slice adopted into pool, model resident"
			}
			return decisions.Record{
				Kind: decisions.KindDemote, Func: fn.spec.Name, Subject: inst.id,
				Rule: "idle below hotness threshold", Outcome: outcome,
				Inputs: []decisions.KV{
					kvF("idle", inst.tracker.IdleFor(p.eng.Now())),
					kvF("threshold", p.opts.IdleDemote),
				},
			}
		},
	})
	if adopt {
		fn.removeInstance(inst)
		inv.adoptShared(inst.slices[0], fn)
		return
	}
	p.releaseInstance(inst)
	if fn.ts == nil {
		if b := inv.bindTS(fn); b != nil {
			// The model was just on a GPU; its host copy is warm.
			b.everLoaded = true
		}
	}
}

// maintainPool ages out idle bindings (warm -> cold after the ten-minute
// timeout, Fig. 8 transition 5) and releases empty pool slices.
func (inv *Invoker) maintainPool() {
	p := inv.p
	now := p.eng.Now()
	shared := append([]*sharedSlice(nil), inv.shared...)
	for _, ss := range shared {
		for _, b := range slices.Clone(ss.bindings) {
			if b.outstanding > 0 {
				continue
			}
			window := p.opts.KeepAlive
			if p.swapOn() && b.everLoaded && b.hostMemGB > 0 &&
				swapParkAfter < window {
				// Swap-aware demotion: the materialised pool copy keeps
				// the model warm on its own, so an idle binding need not
				// ride out the keep-alive window pinning a shared slice.
				window = swapParkAfter
			}
			if b.tracker.IdleFor(now) >= window {
				p.logEvent(EvCold, b.fn.spec.Name, "idle past the keep-alive window", transition{})
				inv.unbind(b)
			}
		}
		if len(ss.bindings) == 0 && ss.serving == nil && ss.qlen() == 0 {
			inv.releaseShared(ss, "")
		}
	}
}

// dropStalePending abandons requests whose wait exceeds pendingDrop
// SLOs; they are recorded as drops (SLO misses). Both waiting places
// are swept: the per-function pending overflow and the time-sharing
// slice queues — a request parked behind a busy shared slice times out
// just like one that never found a slice.
func (p *Platform) dropStalePending() {
	now := p.eng.Now()
	for _, fn := range p.funcs {
		keep := fn.pending[:0]
		for _, rq := range fn.pending {
			if fn.spec.SLO > 0 && now-rq.arrival > pendingDrop*fn.spec.SLO {
				p.finishUnserved(EvDrop, "pending past the client timeout", transition{
					rq: rq,
					decision: func() decisions.Record {
						return decisions.Record{
							Kind: decisions.KindDrop, Rule: "client-timeout",
							Outcome: "dropped from pending overflow",
							Inputs: []decisions.KV{
								kvF("waited", now-rq.arrival),
								kvF("limit", pendingDrop*rq.fn.spec.SLO),
							},
						}
					},
				})
				continue
			}
			keep = append(keep, rq)
		}
		fn.pending = keep
	}
	for _, inv := range p.inv {
		for _, ss := range inv.shared {
			for _, b := range ss.dropStale(p, now) {
				p.onTSSlack(b)
			}
		}
	}
}

// invokerOf maps a node to its invoker.
func (p *Platform) invokerOf(node *cluster.Node) *Invoker {
	return p.inv[node.ID]
}

// nodeOf maps a slice back to its node.
func (p *Platform) nodeOf(sl *mig.Slice) *cluster.Node {
	return p.cl.Nodes[sl.GPU.Node]
}

// loadTimeFor models instance startup cost. With the swap tier on, the
// node's host pool is the source of truth: a resident copy means a
// swap-in over PCIe, anything else a full cold start (which also
// establishes the pool copy, evicting LRU victims if needed). Off, the
// legacy heuristic applies: a warm load when the function ran on the
// node within the keep-alive window.
func (p *Platform) loadTimeFor(fn *Function, node *cluster.Node, now float64) float64 {
	if p.swapOn() {
		pool := node.Pool()
		name := fn.spec.Name
		if pool.LoadedCopy(name) {
			if pool.Parked(name) {
				p.logEvent(EvSwapIn, name,
					fmt.Sprintf("exclusive launch from parked copy on node%d", node.ID), transition{})
			}
			pool.Reclaim(name)
			return keepalive.SwapInTime(fn.memGB)
		}
		// No materialised copy (a bare reservation is only space): the
		// launch refetches remotely, establishing the pool copy.
		p.ensureHostCopy(node, fn)
		return keepalive.ColdStartTime(fn.memGB)
	}
	if last, ok := fn.lastNodeUse[node.ID]; ok && now-last < p.opts.KeepAlive {
		return keepalive.WarmLoadTime(fn.memGB)
	}
	return keepalive.ColdStartTime(fn.memGB)
}
