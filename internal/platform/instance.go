package platform

import (
	"fmt"
	"math"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/keepalive"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/sim"
)

// Instance is one exclusive-hot deployment of a function: a monolithic
// instance on one slice or a pipeline across several. Time-sharing
// deployments are tsBindings (invoker.go).
type Instance struct {
	id   string
	fn   *Function
	node *cluster.Node
	plan pipeline.Plan

	slices []*mig.Slice
	// stations holds one station per stage; they batch when
	// Options.MaxBatch > 1.
	stations []*sim.Station

	// inflight holds the admitted, not-yet-completed requests: its
	// length is the load held against capacity, and a fault retries
	// exactly these.
	inflight []*request
	capacity int

	tracker *keepalive.Tracker
	// retiring instances take no new work (set once, by retire).
	retiring bool
	// pos is the instance's index in fn.instances, -1 while unlinked.
	pos int
	// decID is id interned in the decision recorder (NoID without one).
	decID decisions.ID
	// loadEndsAt is when the initial model load finishes; stations stay
	// paused until then.
	loadEndsAt float64
	// migrating marks a pipeline instance being replaced by a
	// monolithic one (§5.3 pipeline migration).
	migrating bool
	// failed marks an instance torn down by a hardware fault: stale
	// engine events referencing it become no-ops, and its in-flight
	// requests were already retried elsewhere.
	failed bool
}

// forget drops rq from the in-flight list (on completion).
func (inst *Instance) forget(rq *request) {
	for i, x := range inst.inflight {
		if x == rq {
			inst.inflight = append(inst.inflight[:i], inst.inflight[i+1:]...)
			inst.fn.markOpen(inst)
			return
		}
	}
}

// retire stops the instance taking new work; it releases once its
// in-flight requests drain.
func (inst *Instance) retire() {
	inst.retiring = true
	inst.fn.markOpen(inst)
}

// Pipelined reports whether the instance spans multiple slices.
func (inst *Instance) Pipelined() bool { return inst.plan.Pipelined() }

// launchInstance allocates the plan's slices and starts the stage
// stations, paused for the load time. Slices are the physical slices
// matched to plan stages.
func (p *Platform) launchInstance(fn *Function, node *cluster.Node, plan pipeline.Plan, slices []*mig.Slice, loadTime float64) *Instance {
	now := p.eng.Now()
	// A gray-degraded slice stretches the initial weight fetch too; the
	// pipeline is ready only when its slowest slice is (x1.0 when no
	// slice is degraded, which is exact).
	loadTime *= p.degradeLoadFactor(slices)
	p.instSeq++
	inst := &Instance{
		id:      fmt.Sprintf("%s#%d", fn.spec.Name, p.instSeq),
		fn:      fn,
		node:    node,
		plan:    plan,
		slices:  slices,
		tracker: keepalive.NewTracker(),
		pos:     -1,
	}
	inst.decID = p.opts.Decisions.Intern(inst.id)
	bottleneck := plan.Bottleneck
	if p.opts.MaxBatch > 1 {
		// With batching, the effective per-request service time at full
		// batch is exec·n^gamma / n.
		bottleneck *= math.Pow(float64(p.opts.MaxBatch), batchGamma-1)
	}
	inst.capacity = admissionCapacity(fn.spec.SLO, bottleneck, queueSlack)
	inst.loadEndsAt = now + loadTime
	if p.swapOn() {
		// The initial fetch materialises the pool copy when it lands;
		// until then the reservation is space without data. No-op if the
		// pool evicted the reservation mid-fetch.
		name := fn.spec.Name
		p.eng.After(loadTime, func() {
			if !inst.failed {
				node.Pool().MarkLoaded(name)
			}
		})
	}
	for si, sp := range plan.Stages {
		sl := slices[si]
		if sl.Type != sp.SliceType {
			panic(fmt.Sprintf("platform: slice %s type %v != stage type %v",
				sl.ID(), sl.Type, sp.SliceType))
		}
		sl.Allocate(inst.id, now)
		st := sim.NewStation(p.eng)
		st.SetBatching(p.opts.MaxBatch, batchWindow)
		st.Pause()
		inst.stations = append(inst.stations, st)
	}
	resume := func() {
		if inst.failed {
			return
		}
		for _, st := range inst.stations {
			st.Resume()
		}
	}
	if loadTime > 0 {
		p.eng.After(loadTime, resume)
	} else {
		resume()
	}
	if loadTime > 0 {
		for si, sl := range slices {
			p.sliceWork(sl, util.BusyLoad, fn, -1, si, now, now+loadTime, 0)
		}
	}
	inst.tracker.Touch(now)
	fn.instances = append(fn.instances, inst)
	fn.sortInstances()
	fn.lastNodeUse[node.ID] = now
	detail := plan.String()
	p.logEvent(EvLaunch, inst.id, detail, transition{
		touched: slices,
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindBind, Func: fn.spec.Name, Subject: inst.id,
				Rule: "policy placement", Outcome: "launched " + detail,
				Inputs: []decisions.KV{
					kv("slices", sliceIDs(slices)),
					kvF("load", loadTime),
					kvI("capacity", inst.capacity),
				},
			}
		},
	})
	return inst
}

// admissionCapacity bounds outstanding requests so queued work can still
// meet the SLO: the paper routes "until its serving capacity is
// reached".
func admissionCapacity(slo, bottleneck, slack float64) int {
	if bottleneck <= 0 {
		return 1
	}
	c := int(slack * slo / bottleneck)
	if c < 1 {
		c = 1
	}
	return c
}

// admit runs a request through the instance's stage stations.
func (inst *Instance) admit(p *Platform, rq *request) {
	inst.inflight = append(inst.inflight, rq)
	inst.fn.markOpen(inst)
	rq.snapshot()
	inst.tracker.Touch(p.eng.Now())
	// A torn-down instance takes no work; its requests were already
	// retried elsewhere.
	if !inst.failed {
		// The stageJob embeds the sim.Job and serves as its Runner, and
		// the same job carries the request through every stage. Jobs
		// are recycled, or carved from shared blocks; a recycled one
		// keeps its hop event, which is not pending, and its hopFn.
		sj := take(p, &p.jobPool, &p.jobFree)
		sj.p, sj.inst, sj.rq, sj.si, sj.n = p, inst, rq, 0, 0
		sj.job.Runner = sj
		sj.enqueue()
	}
	// The request may be at deadline risk on a suspect slice: consider
	// duplicating it onto healthy hardware (no-op unless hedging is on).
	p.maybeHedgeInstance(inst, rq)
}

// stageJob is one request's passage through an exclusive instance's
// stages: the sim.Job it rides plus the state its callbacks need. si is
// the stage it is at and n the size of the batch it was served in there
// (1 unless the instance batches); between stages it waits out the
// TransferOut hop on its own hop event.
type stageJob struct {
	job       sim.Job
	p         *Platform
	inst      *Instance
	rq        *request
	si, n     int32
	enqueueAt float64
	// exec is what the stage actually took (profile time stretched by
	// any gray degradation); it stays 0 when the copy was cancelled
	// before service, which the health scorer ignores.
	exec float64
	// hop and hopFn carry the job to stage si+1 when its transfer ends;
	// hopFn is bound on the job's first hop and kept when the job is
	// recycled, so a monolithic instance's jobs never pay for it and a
	// job pays for it once over all its uses.
	hop   sim.Event
	hopFn func()
}

// enqueue queues the job at its current stage's station.
func (sj *stageJob) enqueue() {
	sj.enqueueAt = sj.p.eng.Now()
	sj.exec = 0
	sj.inst.stations[sj.si].Enqueue(&sj.job)
}

// next moves the job on to the following stage once its transfer lands.
func (sj *stageJob) next() {
	if sj.inst.failed {
		// The instance died while the request was between stages; the
		// fault handler already retried it elsewhere.
		return
	}
	sj.si++
	sj.enqueue()
}

// declared is the profile time of the job's stage for its batch:
// ExecTime·n^gamma, exactly ExecTime when unbatched.
func (sj *stageJob) declared() float64 {
	d := sj.inst.plan.Stages[sj.si].ExecTime
	if sj.n > 1 {
		d *= math.Pow(float64(sj.n), batchGamma)
	}
	return d
}

// Service implements sim.Runner. Every live job of a batch returns the
// batch's duration, so the station holds the slice that long.
func (sj *stageJob) Service() sim.Time {
	p, inst, rq, si := sj.p, sj.inst, sj.rq, int(sj.si)
	if inst.failed || rq.hedgeCancelled() {
		return 0
	}
	sl := inst.slices[si]
	sp := inst.plan.Stages[si]
	now := p.eng.Now()
	wait := now - sj.enqueueAt
	// Attribute the portion of the wait spent in the initial
	// model load to Load (Fig. 14); the remaining wait becomes
	// Queue as the residual at completion.
	load := inst.loadEndsAt - sj.enqueueAt
	if load < 0 {
		load = 0
	}
	if load > wait {
		load = wait
	}
	rq.rec.Load += load
	sj.n = int32(inst.stations[si].InService())
	// Gray degradation stretches the whole batch (x1.0 exact when the
	// slice is clean).
	exec := sj.declared() * p.degradeFactor(sl)
	sj.exec = exec
	rq.rec.Exec += exec
	sl.SetActive(true, now)
	inst.tracker.Begin(now)
	if r := p.opts.Obs; r != nil {
		if si == 0 {
			r.AsyncSpan("queue", "queue", rq.rec.Func, rq.rec.ID,
				rq.waitStart, now, "")
		}
		if load > 0 {
			// The share of the wait spent behind the initial model
			// load (rec.Load above), drawn for the Chrome view only:
			// the critical-path reconstruction reads the record. The
			// observed chrome-trace digest pins it.
			r.AsyncSpan("load", "load-wait", rq.rec.Func, rq.rec.ID,
				sj.enqueueAt, sj.enqueueAt+load, "")
		}
	}
	// Declared stays the unbatched profile time; a batch's n^gamma and a
	// degraded slice's stretch show up as span drift.
	p.sliceWork(sl, util.BusyExec, inst.fn, rq.rec.ID, si, now, now+exec, sp.ExecTime)
	return exec
}

// Done implements sim.Runner.
func (sj *stageJob) Done() {
	p, inst, rq, si, exec := sj.p, sj.inst, sj.rq, int(sj.si), sj.exec
	if inst.failed {
		return
	}
	sl := inst.slices[si]
	sp := inst.plan.Stages[si]
	now := p.eng.Now()
	// The first Done of a batch ends the slice's busy period; its
	// batch-mates find the slice idle, or busy with the next batch.
	if sl.Active() && !inst.stations[si].Busy() {
		sl.SetActive(false, now)
		inst.tracker.End(now)
	}
	if rq.hedgeCancelled() {
		// Losing copy of a hedged request: stop its pipeline here;
		// complete() swallows it (no record, waste counted).
		inst.forget(rq)
		p.complete(rq)
		p.onInstanceSlack(inst)
		return
	}
	declared := sj.declared()
	if si+1 < len(inst.stations) {
		tr := sp.TransferOut * p.degradeFactor(sl)
		rq.rec.Transfer += tr
		p.sliceWork(sl, util.BusyTransfer, inst.fn, rq.rec.ID, si, now, now+tr, 0)
		if sj.hopFn == nil {
			sj.hopFn = sj.next
		}
		p.eng.Rearm(&sj.hop, now+tr, sj.hopFn)
		p.observeSliceExec(sl, declared, exec)
		return
	}
	inst.forget(rq)
	p.complete(rq)
	p.onInstanceSlack(inst)
	// Health observation last: it may quarantine the slice and
	// tear this instance down, which must not race the
	// completion bookkeeping above.
	p.observeSliceExec(sl, declared, exec)
	p.recycle(rq, sj)
}

// hasCapacity reports whether the instance can admit another request.
func (inst *Instance) hasCapacity() bool {
	return !inst.retiring && len(inst.inflight) < inst.capacity
}

// release frees the instance's slices and unlinks it. Only call when no
// requests are outstanding.
func (p *Platform) releaseInstance(inst *Instance) {
	if len(inst.inflight) > 0 {
		panic("platform: releasing instance with outstanding requests")
	}
	now := p.eng.Now()
	for _, sl := range inst.slices {
		sl.Release(now)
	}
	inst.fn.removeInstance(inst)
	inst.fn.lastNodeUse[inst.node.ID] = now
	if p.swapOn() {
		p.parkIfUnused(inst.fn, inst.node)
	}
	p.logEvent(EvRelease, inst.id, "", transition{touched: inst.slices})
	// Freed large slices may enable pipeline migration (§5.3).
	if p.opts.Policy.Migration() {
		for _, sl := range inst.slices {
			p.tryMigration(sl)
		}
	}
}

// drainPending admits the function's pending overflow into inst while
// it has capacity; body is the admission record each drained request
// gets (which new capacity took it).
func (p *Platform) drainPending(inst *Instance, body decisions.Body) {
	fn := inst.fn
	for fn.pending.Len() > 0 && inst.hasCapacity() {
		rq := fn.pending.Pop()
		if p.decOn() {
			p.decideAdmit(rq, body, inst.decID, nil)
		}
		inst.admit(p, rq)
	}
}

// onInstanceSlack runs after a completion frees capacity: drain pending
// requests, and finish retirement when a draining instance empties.
func (p *Platform) onInstanceSlack(inst *Instance) {
	p.drainPending(inst, inst.fn.admits.drainSlack)
	// A fault-failed instance already released its slices in
	// failInstance; releasing again would double-release and panic.
	if inst.retiring && !inst.failed && len(inst.inflight) == 0 {
		p.releaseInstance(inst)
	}
}
