package platform

import (
	"fmt"
	"slices"
	"strings"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/sim"
)

// Invoker is the per-node runtime: it owns the node's time-sharing slice
// pool and performs eviction, pool resizing, and pipeline migration.
type Invoker struct {
	p      *Platform
	node   *cluster.Node
	shared []*sharedSlice

	// Cached free-slice snapshot, revalidated against the node's
	// free-set generation. Every path that changes the free set —
	// instance launch/release, pool grow/shrink, demotion adoption,
	// migration, fault injection and recovery — bumps the generation
	// at the mig/cluster layer, so the cache can never serve a stale
	// view.
	freeGen    uint64
	freeValid  bool
	freeTypes  []mig.SliceType
	freePhys   []*mig.Slice
	freeCounts pipeline.Counts
}

func newInvoker(p *Platform, node *cluster.Node) *Invoker {
	return &Invoker{p: p, node: node}
}

// freeView returns the node's free slices (types and physical slices,
// in FreeSlices order) and their multiset. Unchanged nodes are served
// from the cached snapshot, so the multiset is tallied once per free-set
// generation.
func (inv *Invoker) freeView() ([]mig.SliceType, []*mig.Slice, pipeline.Counts) {
	gen := inv.node.FreeGen()
	if inv.freeValid && gen == inv.freeGen {
		return inv.freeTypes, inv.freePhys, inv.freeCounts
	}
	free := inv.node.FreeSlices()
	types := make([]mig.SliceType, len(free))
	for i, s := range free {
		types[i] = s.Type
	}
	inv.freeGen = gen
	inv.freeValid = true
	inv.freeTypes = types
	inv.freePhys = free
	inv.freeCounts = pipeline.CountsOf(types)
	return types, free, inv.freeCounts
}

// tsBinding is a function's time-sharing deployment: the function is
// bound to one shared slice; its model is either resident on the slice
// or evicted to host memory (warm).
type tsBinding struct {
	fn     *Function
	shared *sharedSlice
	// resident is set when a slice loads the model and cleared when a
	// slice evicts it. It is not always shared.resident == b: a binding
	// moved off a slice while its old queue drains is made resident
	// again by the old slice's kick, and estLoad then charges its jobs on
	// the new slice no load. Deriving it from shared.resident changes the
	// swap study, so that fix is left to a change of its own.
	resident bool
	// everLoaded distinguishes the first load (cold start from remote
	// storage) from warm reloads out of host memory.
	everLoaded  bool
	tracker     *keepalive.Tracker
	state       *keepalive.Machine
	outstanding int
	capacity    int
	hostMemGB   float64 // host memory reserved for the warm copy
	// loadChurn accumulates reload time the binding paid on recent
	// kicks, decayed each control tick (swap tier only). Sustained
	// churn means the slice's working set exceeds residency, the signal
	// for swap-aware promotion: every request is being served — just
	// behind a reload — so the pending-overflow trigger never fires.
	loadChurn float64
}

// tsJob is one queued time-sharing request.
type tsJob struct {
	rq *request
	b  *tsBinding
	// priority = deadline - estimated execution - estimated load (§5.3).
	priority float64
	// service is the job's estimated execution time, the admission
	// estimator's backlog unit.
	service float64
}

// sharedSlice is one MIG slice in the invoker's time-sharing pool.
// Only one instance accesses it at a time, preserving the MIG isolation
// principle (§4).
type sharedSlice struct {
	inv      *Invoker
	slice    *mig.Slice
	resident *tsBinding
	// bindings lists the slice's bindings in function-name order, so
	// every walk over them is deterministic.
	bindings []*tsBinding
	// queue holds the waiting jobs in priority order (§5.3).
	queue sim.Queue[tsJob]
	// queuedWork and servingWork track the backlog in estimated
	// execution seconds, feeding the admission estimator.
	queuedWork  float64
	servingWork float64
	// decID is the slice's ID interned in the decision recorder (NoID
	// without one).
	decID decisions.ID
	// serving is the job in service; its rq is nil while the slice is
	// idle. A fault retries exactly the request that was running. exec
	// and declaredExec are its execution time as charged (degraded) and
	// as declared.
	serving            tsJob
	exec, declaredExec float64
	// done is the slice's completion event, re-armed with doneFn for
	// every service: the slice serves one job at a time, so one event
	// serves them all.
	done   sim.Event
	doneFn func()
	// failed marks a pool slice torn down by a hardware fault: stale
	// engine events referencing it become no-ops.
	failed bool
}

// newSharedSlice builds a pool slice.
func newSharedSlice(inv *Invoker, sl *mig.Slice) *sharedSlice {
	ss := &sharedSlice{
		inv:   inv,
		slice: sl,
		decID: inv.p.opts.Decisions.Intern(sl.ID()),
	}
	ss.doneFn = ss.finish
	return ss
}

// busy reports whether a job is in service.
func (ss *sharedSlice) busy() bool { return ss.serving.rq != nil }

// byPriority orders a slice's queue by deadline minus estimated
// execution and load (§5.3).
func byPriority(a, b tsJob) bool { return a.priority < b.priority }

// addBinding files b on the slice in function-name order.
func (ss *sharedSlice) addBinding(b *tsBinding) {
	i, _ := slices.BinarySearchFunc(ss.bindings, b.fn.spec.Name, func(x *tsBinding, name string) int {
		return strings.Compare(x.fn.spec.Name, name)
	})
	ss.bindings = slices.Insert(ss.bindings, i, b)
}

// detach removes b from the slice. If b is resident there, the slice
// is left empty without logging an eviction.
func (ss *sharedSlice) detach(b *tsBinding) {
	ss.bindings = slices.DeleteFunc(ss.bindings, func(x *tsBinding) bool { return x == b })
	if ss.resident == b {
		ss.resident = nil
		b.resident = false
	}
}

// place homes b on ss, sizing its admission capacity for ss's slice.
func (b *tsBinding) place(ss *sharedSlice) {
	b.shared = ss
	b.capacity = admissionCapacity(b.fn.spec.SLO, b.execOn(), queueSlack)
	ss.addBinding(b)
}

// sharedOwner is the slice-owner tag of pool slices.
func (inv *Invoker) sharedOwner() string {
	return fmt.Sprintf("ts-pool@node%d", inv.node.ID)
}

// execOn returns the binding's monolithic service time on its shared
// slice.
func (b *tsBinding) execOn() float64 {
	return b.fn.mono(b.shared.slice.Type).Plan.Latency
}

// estLoad estimates the load the next request would pay. A warm reload
// requires an actual host copy (hostMemGB > 0): a binding whose
// reservation failed or whose copy the pool evicted pays a full cold
// start, never a phantom warm load.
func (b *tsBinding) estLoad() float64 {
	if b.resident {
		return 0
	}
	if b.everLoaded && b.hostMemGB > 0 {
		return keepalive.WarmLoadTime(b.fn.memGB)
	}
	return keepalive.ColdStartTime(b.fn.memGB)
}

// reserveWarmCopy backs b with a keyed host-pool copy of its model.
// With the swap tier on, the reservation may evict parked LRU copies or
// reclaim a parked copy of the same model (making the next load a
// swap-in instead of a remote fetch); off, a full pool simply leaves
// the binding copyless.
func (inv *Invoker) reserveWarmCopy(b *tsBinding) {
	fn := b.fn
	if inv.p.swapOn() {
		gb, hadCopy := inv.p.ensureHostCopy(inv.node, fn)
		b.hostMemGB = gb
		if hadCopy {
			b.everLoaded = true
		}
		return
	}
	if inv.node.Pool().ReserveModel(fn.spec.Name, fn.memGB) {
		b.hostMemGB = fn.memGB
	}
}

// bindTS gives fn a time-sharing binding on this node, growing the pool
// if needed. Returns nil when no slice in the pool or free list can host
// the function monolithically.
func (inv *Invoker) bindTS(fn *Function) *tsBinding {
	if fn.ts != nil {
		return fn.ts
	}
	ss := inv.pickSharedSlice(fn)
	if inv.p.swapOn() && ss != nil && len(ss.bindings) > 0 {
		// Swap-aware bind placement: bindings are cheap to re-create
		// (the model copy persists in the host pool), so they unbind
		// early and re-bind often. Piling every re-bind onto the same
		// shared slice round-robins reloads; take a fresh slice while
		// one is free and share only when the node is truly full.
		if grown := inv.growPool(fn); grown != nil {
			ss = grown
		}
	}
	if ss == nil {
		ss = inv.growPool(fn)
	}
	if ss == nil {
		return nil
	}
	b := inv.attach(ss, fn, false)
	if inv.p.decOn() {
		inv.p.decide(decisions.Record{
			Kind: decisions.KindBind, Func: fn.spec.Name,
			Req: decisions.NoRequest, Subject: ss.slice.ID(),
			Rule:    "shortest-queue pool slice",
			Outcome: fmt.Sprintf("time-sharing binding, capacity %d", b.capacity),
			Inputs: []decisions.KV{
				kvI("queue", ss.queue.Len()),
				kvF("host_copy_gb", b.hostMemGB),
			},
			Candidates: poolCandidates(inv, fn, ss),
		})
	}
	return b
}

// adoptShared converts an already-allocated slice (from a demoted
// monolithic instance) into a pool slice with fn resident — the
// cheapest demotion: no data movement at all.
func (inv *Invoker) adoptShared(sl *mig.Slice, fn *Function) *tsBinding {
	now := inv.p.eng.Now()
	sl.Release(now)
	sl.Allocate(inv.sharedOwner(), now)
	ss := newSharedSlice(inv, sl)
	inv.shared = append(inv.shared, ss)
	return inv.attach(ss, fn, true)
}

// attach creates fn's binding on ss (Fig. 8 transition 1: the first
// request creates a time-sharing instance) with a host-memory copy for
// warm reloads. A resident binding's model is already on the slice, so
// it counts as loaded.
func (inv *Invoker) attach(ss *sharedSlice, fn *Function, resident bool) *tsBinding {
	b := &tsBinding{
		fn:         fn,
		resident:   resident,
		everLoaded: resident,
		tracker:    keepalive.NewTracker(),
		state:      keepalive.NewMachine(),
	}
	b.state.To(keepalive.TimeSharing)
	b.place(ss)
	inv.reserveWarmCopy(b)
	b.tracker.Touch(inv.p.eng.Now())
	if resident {
		ss.resident = b
	}
	fn.ts = b
	return b
}

// pickSharedSlice returns the pool slice with the shortest queue that
// can host fn monolithically.
func (inv *Invoker) pickSharedSlice(fn *Function) *sharedSlice {
	var best *sharedSlice
	for _, ss := range inv.shared {
		if !fn.mono(ss.slice.Type).OK {
			continue
		}
		if best == nil || ss.queue.Len() < best.queue.Len() {
			best = ss
		}
	}
	return best
}

// growPool allocates the smallest free slice that can host fn and adds
// it to the pool.
func (inv *Invoker) growPool(fn *Function) *sharedSlice {
	now := inv.p.eng.Now()
	// The generation-validated snapshot spares the full node walk: an
	// overloaded function retries growth every scale-up pass, and an
	// unchanged free set answers from cache (same FreeSlices order).
	_, free, _ := inv.freeView()
	var pick *mig.Slice
	for _, sl := range free {
		if !fn.mono(sl.Type).OK {
			continue
		}
		if pick == nil || sl.Type < pick.Type {
			pick = sl
		}
	}
	if pick == nil {
		return nil
	}
	pick.Allocate(inv.sharedOwner(), now)
	ss := newSharedSlice(inv, pick)
	inv.shared = append(inv.shared, ss)
	inv.p.logEvent(EvPoolGrow, pick.ID(), "", transition{touched: []*mig.Slice{pick}})
	return ss
}

// rebindToFreshSlice grows the pool and moves fn's binding onto the new
// slice, relieving a congested shared slice. Requests already queued on
// the old slice drain there; new requests go to the fresh one. Reports
// false when no free slice can host the function.
func (inv *Invoker) rebindToFreshSlice(fn *Function) bool {
	b := fn.ts
	if b == nil || b.shared.inv != inv {
		return false
	}
	ns := inv.growPool(fn)
	if ns == nil {
		return false
	}
	inv.moveBinding(b, ns)
	return true
}

// moveBinding rehomes b on dst. Requests already queued on the old
// slice drain there. New requests go to dst, and the function's pending
// overflow moves there at once rather than at the next completion or
// control tick.
func (inv *Invoker) moveBinding(b *tsBinding, dst *sharedSlice) {
	b.shared.detach(b)
	b.place(dst)
	inv.p.onTSSlack(b)
}

// reclaimIdle releases completely idle pool slices so exclusive
// scale-up can use them: bindings are moved to sibling pool slices when
// one fits, otherwise aged straight to cold. Returns how many slices
// were freed. Called when placement fails for lack of free slices —
// idle shared capacity should never block a hot function (§5.3's
// auto-scale-down of the time-sharing pool).
func (inv *Invoker) reclaimIdle() int {
	now := inv.p.eng.Now()
	first := -1
	for i, ss := range inv.shared {
		if reclaimable(ss, now) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	// Reclaiming edits inv.shared, so walk a snapshot of it; the slices
	// before the first candidate were passed over untouched.
	freed := 0
	shared := append([]*sharedSlice(nil), inv.shared[first:]...)
	for _, ss := range shared {
		if !reclaimable(ss, now) {
			continue
		}
		for _, b := range slices.Clone(ss.bindings) {
			if dst := inv.siblingSlice(ss, b); dst != nil {
				inv.moveBinding(b, dst)
			} else {
				inv.unbind(b) // no sibling fits: the binding goes cold
			}
		}
		inv.releaseShared(ss, "")
		freed++
	}
	return freed
}

// reclaimable reports whether reclaimIdle may free ss: nothing in
// service or queued, and every binding idle for a while.
func reclaimable(ss *sharedSlice, now float64) bool {
	if ss.busy() || ss.queue.Len() > 0 {
		return false
	}
	for _, b := range ss.bindings {
		// Recently used bindings stay: dropping them would trade a
		// guaranteed cold start for a speculative placement.
		if b.outstanding > 0 || b.tracker.IdleFor(now) < 5 {
			return false
		}
	}
	return true
}

// siblingSlice finds another pool slice that can host b's function.
func (inv *Invoker) siblingSlice(not *sharedSlice, b *tsBinding) *sharedSlice {
	for _, ss := range inv.shared {
		if ss == not {
			continue
		}
		if b.fn.mono(ss.slice.Type).OK {
			return ss
		}
	}
	return nil
}

// enqueue admits a request to the binding's shared slice, into the
// queue ordered by deadline minus estimated execution and load times
// (§5.3). Equal priorities keep arrival order.
func (ss *sharedSlice) enqueue(p *Platform, b *tsBinding, rq *request) {
	b.outstanding++
	rq.snapshot()
	b.tracker.Touch(p.eng.Now())
	job := tsJob{
		rq:       rq,
		b:        b,
		priority: rq.deadline - b.execOn() - b.estLoad(),
		service:  b.execOn(),
	}
	ss.queuedWork += job.service
	ss.queue.Insert(job, byPriority)
	ss.kick(p)
}

// kick starts serving if the slice is idle. Cancelled hedge copies are
// skimmed off the queue head without service (their winner already
// completed); a gray-degraded slice stretches both the load and the
// execution by its severity factor.
func (ss *sharedSlice) kick(p *Platform) {
	if ss.failed || ss.busy() || ss.queue.Len() == 0 {
		return
	}
	var job tsJob
	var cancelled []*tsBinding
	for job.rq == nil && ss.queue.Len() > 0 {
		job = ss.queue.Pop()
		ss.queuedWork -= job.service
		if job.rq.hedgeCancelled() {
			job.b.outstanding--
			// complete() settles the loser: no record, waste counted
			// (zero here — the copy never served).
			p.complete(job.rq)
			cancelled = append(cancelled, job.b)
			job = tsJob{}
		}
	}
	if job.rq == nil {
		for _, cb := range cancelled {
			p.onTSSlack(cb)
		}
		return
	}
	ss.serving = job
	b := job.b
	now := p.eng.Now()

	f := p.degradeFactor(ss.slice)
	load := 0.0
	if ss.resident != b {
		// Evict the resident and load the pertinent instance (§5.3).
		// Loading happens as part of this request's service.
		if ss.resident != nil {
			ss.evictResident(p)
		}
		load = b.estLoad() * f
		if p.swapOn() {
			b.loadChurn += load
		}
		ss.resident = b
		b.resident = true
		// Warm -> TimeSharing for a reload out of host memory, Cold ->
		// TimeSharing (Fig. 8 transition 1) when the copy was lost and the
		// load above is a full cold start.
		if s := b.state.State(); s == keepalive.Warm || s == keepalive.Cold {
			b.state.To(keepalive.TimeSharing)
		}
	}
	declaredExec := b.execOn()
	exec := declaredExec * f
	job.rq.rec.Load += load
	job.rq.rec.Exec += exec
	ss.servingWork = load + exec
	ss.exec, ss.declaredExec = exec, declaredExec
	ss.slice.SetActive(true, now)
	rq := job.rq
	p.opts.Obs.AsyncSpan("queue", "queue", rq.rec.Func, rq.rec.ID, rq.waitStart, now, "")
	if load > 0 {
		p.sliceWork(ss.slice, util.BusyLoad, b.fn, rq.rec.ID, -1, now, now+load, 0)
	}
	p.sliceWork(ss.slice, util.BusyExec, b.fn, rq.rec.ID, -1, now+load, now+load+exec, declaredExec)
	p.eng.Rearm(&ss.done, now+(load+exec), ss.doneFn)
	// The serving job may be at deadline risk on a suspect slice:
	// consider duplicating it onto healthy hardware (no-op unless
	// hedging is on). After the service registration so the clone's
	// routing cannot interleave with this slice's bookkeeping.
	p.maybeHedgeTS(ss, job.rq, now+load+exec)
	for _, cb := range cancelled {
		p.onTSSlack(cb)
	}
}

// finish completes the job in service (the done event's callback).
func (ss *sharedSlice) finish() {
	if ss.failed {
		// The slice died mid-service; the fault handler already
		// retried the job elsewhere.
		return
	}
	p := ss.inv.p
	job, exec, declaredExec := ss.serving, ss.exec, ss.declaredExec
	b := job.b
	end := p.eng.Now()
	ss.serving = tsJob{}
	ss.servingWork = 0
	ss.slice.SetActive(false, end)
	// The model is fully fetched only now; the host copy makes
	// later loads warm (for this binding and for exclusive
	// launches on this node).
	b.everLoaded = true
	b.fn.lastNodeUse[ss.inv.node.ID] = end
	if p.swapOn() {
		// The fetch landed in host RAM on its way to the device:
		// (re-)reserve the pool copy if the binding lost it, refresh
		// its LRU position either way, and mark it materialised —
		// from here on a reload out of it is a real warm start.
		if b.hostMemGB == 0 {
			b.hostMemGB, _ = p.ensureHostCopy(ss.inv.node, b.fn)
		} else {
			ss.inv.node.Pool().Touch(b.fn.spec.Name)
		}
		ss.inv.node.Pool().MarkLoaded(b.fn.spec.Name)
	}
	// Hotness counts execution only: a cold-start load must not make
	// a rarely-used function look hot.
	b.tracker.Begin(end - exec)
	b.tracker.End(end)
	b.outstanding--
	p.complete(job.rq)
	p.recycle(job.rq, nil)
	// Health observation may quarantine this slice and tear it down
	// (failShared); the kick below then no-ops on ss.failed.
	p.observeSliceExec(ss.slice, declaredExec, exec)
	ss.kick(p)
	p.onTSSlack(b)
}

// evictResident moves the current resident out of MIG memory to the
// warm state (Fig. 8 transition 4).
func (ss *sharedSlice) evictResident(p *Platform) {
	old := ss.resident
	if old == nil {
		return
	}
	old.resident = false
	if old.state.State() == keepalive.TimeSharing {
		old.state.To(keepalive.Warm)
		if old.hostMemGB <= 0 {
			// No host copy backs this binding (the reservation failed, or
			// the pool evicted the copy): claiming Warm would charge the
			// next reload a phantom WarmLoadTime. Fall through to Cold —
			// the next load is a genuine remote refetch.
			old.state.To(keepalive.Cold)
			old.everLoaded = false
		}
	}
	ss.resident = nil
	p.logEvent(EvEvict, old.fn.spec.Name, "LRU eviction from "+ss.slice.ID(), transition{})
}

// unbind removes a binding entirely (warm -> cold, Fig. 8 transition
// 5). The slice stays in the pool: callers release it once empty.
func (inv *Invoker) unbind(b *tsBinding) {
	b.shared.detach(b)
	if b.hostMemGB > 0 {
		if inv.p.swapOn() {
			// The copy stays in the pool, parked: a later rebind or
			// exclusive launch reclaims it (swap-in) unless memory
			// pressure evicts it first.
			inv.node.Pool().Park(b.fn.spec.Name)
		} else {
			inv.node.Pool().ReleaseModel(b.fn.spec.Name)
		}
	}
	b.fn.ts = nil
}

// releaseShared returns a pool slice to the free pool; detail annotates
// the pool-shrink event. A slice released by a fault teardown is not
// usable, so tryMigration passes it over; its pool-shrink is the
// teardown transition, since the work recorded upfront on the slice
// died with the hardware.
func (inv *Invoker) releaseShared(ss *sharedSlice, detail string) {
	inv.shared = slices.DeleteFunc(inv.shared, func(x *sharedSlice) bool { return x == ss })
	ss.slice.Release(inv.p.eng.Now())
	inv.p.logEvent(EvPoolShrink, ss.slice.ID(), detail,
		transition{touched: []*mig.Slice{ss.slice}, teardown: ss.failed})
	if inv.p.opts.Policy.Migration() {
		inv.p.tryMigration(ss.slice)
	}
}

// dropStale sheds queued time-sharing jobs whose wait exceeds the
// client timeout. They are recorded exactly like stale pending drops —
// before this sweep, a timed-out request stuck behind a congested
// shared slice was never dropped at all. Returns the bindings whose
// capacity the sweep freed, so the caller can drain pending overflow
// into them.
func (ss *sharedSlice) dropStale(p *Platform, now float64) []*tsBinding {
	var freed []*tsBinding
	ss.queue.Filter(func(j tsJob) bool {
		// A live hedge copy is never stale-dropped: its partner may be
		// about to win, and the settle logic (not a drop record) decides
		// the request's one outcome. Settled losers are dropped silently
		// below.
		if j.rq.hedge != nil && j.rq.hedge.winner == nil {
			return true
		}
		if slo := j.rq.fn.spec.SLO; !(slo > 0 && now-j.rq.arrival > pendingDrop*slo) {
			return true
		}
		ss.queuedWork -= j.service
		j.b.outstanding--
		if j.rq.hedgeCancelled() {
			// Settled hedge loser: its winner was already recorded; the
			// queued copy just disappears (complete() swallows it).
			p.complete(j.rq)
		} else {
			rq := j.rq
			p.finishUnserved(rq, EvDrop, "time-sharing queue past the client timeout", func() decisions.Record {
				return decisions.Record{
					Kind: decisions.KindDrop, Subject: ss.slice.ID(),
					Rule: "client-timeout", Outcome: "dropped from time-sharing queue",
					Inputs: []decisions.KV{
						kvF("waited", now-rq.arrival),
						kvF("limit", pendingDrop*rq.fn.spec.SLO),
					},
				}
			})
		}
		if !slices.Contains(freed, j.b) {
			freed = append(freed, j.b)
		}
		return false
	})
	return freed
}

// onTSSlack drains pending requests into the binding after a completion.
func (p *Platform) onTSSlack(b *tsBinding) {
	fn := b.fn
	for fn.pending.Len() > 0 && b.outstanding < b.capacity && fn.ts == b {
		rq := fn.pending.Pop()
		if p.decOn() {
			p.decideAdmit(rq, fn.admits.drainTSSlack, b.shared.decID, nil)
		}
		b.shared.enqueue(p, b, rq)
	}
}

// tryMigration implements pipeline migration (§5.3): when a large slice
// frees up, replace the worst pipelined instance that fits it with a
// monolithic instance on the freed slice.
func (p *Platform) tryMigration(freed *mig.Slice) {
	now := p.eng.Now()
	if !freed.Free() || !freed.Usable() || !p.nodeOf(freed).Healthy() {
		return
	}
	var bestFn *Function
	var bestInst *Instance
	for _, fn := range p.funcs {
		if !fn.mono(freed.Type).Fits(fn.spec.SLO) {
			continue
		}
		for _, inst := range fn.instances {
			if !inst.Pipelined() || inst.retiring || inst.migrating {
				continue
			}
			// A pipeline with no in-flight work and a cooled-off
			// tracker is about to be demoted by the keep-alive manager;
			// migrating it would pay a model load on the freed slice
			// for a function nobody is calling.
			if len(inst.inflight) == 0 && !inst.tracker.IsHot(now) {
				continue
			}
			// Prefer migrating the highest-latency pipeline.
			if bestInst == nil || inst.plan.Latency > bestInst.plan.Latency {
				bestFn, bestInst = fn, inst
			}
		}
	}
	if bestInst == nil {
		return
	}
	node := p.nodeOf(freed)
	load := p.loadTimeFor(bestFn, node, now)
	newInst := p.launchInstance(bestFn, node, bestFn.mono(freed.Type).Plan, []*mig.Slice{freed}, load)
	bestInst.migrating = true
	bestInst.retire()
	p.logEvent(EvMigrate, bestInst.id, "replaced by monolithic on "+freed.ID(), transition{})
	// The fresh monolith absorbs the function's pending overflow right
	// away — discarding it stranded those requests until the next
	// completion or control tick.
	p.drainPending(newInst, bestFn.admits.drainMigrate)
	if len(bestInst.inflight) == 0 {
		p.releaseInstance(bestInst)
	}
}
