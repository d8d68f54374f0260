package platform

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"fluidfaas/internal/faults"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
)

// This file is the platform's reaction to hardware faults: injection of
// the deterministic fault schedule, teardown of instances and
// time-sharing bindings on failed hardware, and deadline-aware request
// retry. Placement automatically avoids failed hardware because
// FreeSlices filters unhealthy slices/GPUs/nodes; relaunching and
// rebinding happen through the ordinary demand path (retried requests
// pend, kickScaleUp places them elsewhere).

// scheduleFaults builds the run's fault schedule and registers the
// injection and repair events. A nil or empty spec registers nothing,
// leaving fault-free runs bit-for-bit identical.
func (p *Platform) scheduleFaults(end float64) {
	if p.opts.Faults == nil || !p.opts.Faults.Enabled() {
		return
	}
	topo := faults.Topology{}
	for _, n := range p.cl.Nodes {
		nt := faults.NodeTopo{}
		for _, g := range n.GPUs {
			nt.Slices = append(nt.Slices, len(g.Slices))
		}
		topo.Nodes = append(topo.Nodes, nt)
	}
	sched := faults.Build(*p.opts.Faults, p.opts.Seed, end, topo)
	for _, ev := range sched.Events {
		ev := ev
		if ev.Time > end {
			continue
		}
		p.eng.At(ev.Time, func() { p.injectFault(ev) })
		if ev.Recovery > ev.Time && ev.Recovery <= end {
			p.eng.At(ev.Recovery, func() { p.recoverFault(ev) })
		}
	}
}

// injectFault applies one fault event: mark the hardware unhealthy and
// tear down whatever was running on it. Striking already-failed
// hardware is a no-op (overlapping faults happen at high rates).
func (p *Platform) injectFault(ev faults.Event) {
	switch ev.Kind {
	case faults.SliceFault:
		sl := p.cl.Nodes[ev.Node].GPUs[ev.GPU].Slices[ev.Slice]
		if !sl.Healthy() {
			return
		}
		sl.SetHealthy(false)
		p.logEvent(EvFault, sl.ID(), "slice ECC fault", transition{touched: []*mig.Slice{sl}})
		p.failSlice(sl)
	case faults.GPUFault:
		g := p.cl.Nodes[ev.Node].GPUs[ev.GPU]
		if !g.Healthy() {
			return
		}
		g.SetHealthy(false)
		p.logEvent(EvFault, fmt.Sprintf("gpu%d", g.ID), "GPU failure", transition{touched: g.Slices})
		for _, sl := range g.Slices {
			p.failSlice(sl)
		}
	case faults.SliceDegraded:
		// Gray failure: the slice keeps serving, but every execution,
		// load and transfer on it stretches by the severity factor. No
		// teardown, no placement change — fail-stop machinery never
		// notices, which is exactly what makes gray failures hard.
		sl := p.cl.Nodes[ev.Node].GPUs[ev.GPU].Slices[ev.Slice]
		if !sl.Healthy() {
			return
		}
		if _, already := p.degraded[sl]; already {
			return
		}
		sev := ev.Severity
		if sev < 1 {
			sev = 1
		}
		p.degraded[sl] = sev
		p.logEvent(EvDegrade, sl.ID(), fmt.Sprintf("gray degradation x%.1f", sev), transition{})
		// Nothing freed, nothing to re-place: skip the scale-up kick.
		return
	case faults.NodeCrash:
		node := p.cl.Nodes[ev.Node]
		if !node.Healthy() {
			return
		}
		node.SetHealthy(false)
		sls := node.Slices()
		p.logEvent(EvFault, fmt.Sprintf("node%d", node.ID), "node crash", transition{touched: sls})
		for _, sl := range sls {
			p.failSlice(sl)
		}
		// The crash loses the host memory holding warm copies, and the
		// node's image/weight cache: future loads there are cold. Every
		// surviving binding on the node also forgets its copy, so its
		// next load is a cold start, not a phantom warm one.
		node.Pool().DropAll()
		for _, fn := range p.funcs {
			if b := fn.ts; b != nil && b.shared.inv.node == node {
				b.hostMemGB = 0
				b.everLoaded = false
			}
			delete(fn.lastNodeUse, node.ID)
		}
	}
	// Retried and pending demand should be re-placed on surviving
	// hardware without waiting for the next control period.
	p.kickScaleUp()
}

// recoverFault repairs the hardware a fault event took down. Only the
// layer the fault struck is repaired: a slice that faulted on its own
// stays down when its GPU or node recovers.
func (p *Platform) recoverFault(ev faults.Event) {
	switch ev.Kind {
	case faults.SliceFault:
		sl := p.cl.Nodes[ev.Node].GPUs[ev.GPU].Slices[ev.Slice]
		if sl.Healthy() {
			return
		}
		sl.SetHealthy(true)
		p.recoveries++
		p.logEvent(EvRecover, sl.ID(), "slice repaired", transition{touched: []*mig.Slice{sl}})
	case faults.GPUFault:
		g := p.cl.Nodes[ev.Node].GPUs[ev.GPU]
		if g.Healthy() {
			return
		}
		g.SetHealthy(true)
		p.recoveries++
		p.logEvent(EvRecover, fmt.Sprintf("gpu%d", g.ID), "GPU recovered", transition{touched: g.Slices})
	case faults.NodeCrash:
		node := p.cl.Nodes[ev.Node]
		if node.Healthy() {
			return
		}
		node.SetHealthy(true)
		p.recoveries++
		p.logEvent(EvRecover, fmt.Sprintf("node%d", node.ID), "node recovered", transition{touched: node.Slices()})
	case faults.SliceDegraded:
		sl := p.cl.Nodes[ev.Node].GPUs[ev.GPU].Slices[ev.Slice]
		if _, ok := p.degraded[sl]; !ok {
			return
		}
		delete(p.degraded, sl)
		p.recoveries++
		p.logEvent(EvRecover, sl.ID(), "gray degradation cleared", transition{})
		// The slice was never out of placement; no capacity appeared.
		// (The health scorer still has to observe its way back to
		// healthy — the platform has no oracle for the recovery.)
		return
	}
	// Recovered capacity can absorb pending demand immediately.
	p.kickScaleUp()
}

// failSlice tears down whatever owns the slice: an exclusive instance
// (all its slices free up, in-flight requests retry) or a time-sharing
// pool slice (bindings go cold, queued requests retry). A free slice
// needs no teardown — it just stops appearing in placement views. It
// returns the functions whose deployment it tore down.
func (p *Platform) failSlice(sl *mig.Slice) []*Function {
	if sl.Free() {
		return nil
	}
	inv := p.inv[sl.GPU.Node]
	for _, ss := range inv.shared {
		if ss.slice == sl {
			fns := make([]*Function, 0, len(ss.bindings))
			for _, b := range ss.bindings {
				fns = append(fns, b.fn)
			}
			p.failShared(ss)
			return fns
		}
	}
	for _, fn := range p.funcs {
		for _, inst := range fn.instances {
			for _, s := range inst.slices {
				if s == sl {
					p.failInstance(inst)
					return []*Function{fn}
				}
			}
		}
	}
	return nil
}

// failInstance tears down an exclusive instance whose hardware failed:
// its slices are released (healthy siblings of a pipeline return to the
// free pool), and every in-flight request is retried elsewhere.
func (p *Platform) failInstance(inst *Instance) {
	if inst.failed {
		return
	}
	inst.failed = true
	inst.retire()
	now := p.eng.Now()
	for _, sl := range inst.slices {
		if !sl.Free() {
			sl.Release(now)
		}
	}
	inst.fn.removeInstance(inst)
	// The upfront work on these slices extends past the teardown
	// instant; the teardown truncates it so recorded busy time matches
	// work the hardware actually performed.
	p.logEvent(EvRelease, inst.id, "torn down by fault", transition{touched: inst.slices, teardown: true})
	rqs := inst.inflight
	inst.inflight = nil
	for _, rq := range rqs {
		p.retryAfterFault(rq, "instance "+inst.id+" failed")
	}
}

// failShared tears down a time-sharing pool slice whose hardware
// failed: the serving and queued requests retry elsewhere, and every
// binding goes cold (its GPU-resident and host-warm copies are gone
// with the hardware; rebinding happens on the next request). The
// slice's pool-shrink is the teardown transition (releaseShared).
func (p *Platform) failShared(ss *sharedSlice) {
	if ss.failed {
		return
	}
	ss.failed = true
	inv := ss.inv
	var rqs []*request
	if ss.busy() {
		rqs = append(rqs, ss.serving.rq)
		ss.serving = tsJob{}
	}
	ss.queue.Filter(func(job tsJob) bool {
		rqs = append(rqs, job.rq)
		return false
	})
	ss.queuedWork = 0
	ss.servingWork = 0

	for _, b := range ss.bindings {
		b.outstanding = 0
		b.resident = false
		if b.hostMemGB > 0 {
			inv.node.Pool().ReleaseModel(b.fn.spec.Name)
			b.hostMemGB = 0
		}
		b.fn.ts = nil
	}
	ss.bindings = nil
	ss.resident = nil
	inv.releaseShared(ss, "torn down by fault")
	for _, rq := range rqs {
		p.retryAfterFault(rq, "shared slice "+ss.slice.ID()+" failed")
	}
}

// retryAfterFault re-routes a request that lost its hardware, with
// capped exponential backoff. Deadline-aware: a request whose retry
// could not land before its drop horizon (or the end of the run), or
// whose attempt budget is spent, is abandoned as a failed drop.
func (p *Platform) retryAfterFault(rq *request, reason string) {
	now := p.eng.Now()
	// Hedge audit: a hedged copy must never ALSO spawn a fault retry —
	// its partner is already the retry. A settled loser has nothing to
	// recover (the winner's completion was recorded); a copy that dies
	// while the race is live is abandoned unless its partner is dead
	// too, in which case the hedge is void and this copy alone falls
	// through to the ordinary retry path.
	if h := rq.hedge; h != nil {
		if h.winner != nil && h.winner != rq {
			p.chargeHedgeWaste(rq, "losing copy lost its hardware")
			return
		}
		if h.winner == nil {
			h.dead++
			if h.dead < 2 {
				p.logEvent(EvHedgeCancel, rq.fn.spec.Name,
					"hedge copy lost its hardware; partner races on", transition{})
				return
			}
			rq.hedge = nil
		}
	}
	// Roll the breakdown back to the admission snapshot: the failed
	// attempt's partial execution is wasted work and must not double-
	// count against the retry's own execution. The wasted wall-clock
	// time lands in Queue as the completion residual.
	rq.rec.Exec = rq.snapExec
	rq.rec.Load = rq.snapLoad
	rq.rec.Transfer = rq.snapTransfer
	rq.attempts++
	backoff := retryBackoff(rq.id, rq.attempts)
	horizon := p.runEnd
	if rq.fn.spec.SLO > 0 {
		if h := rq.arrival + pendingDrop*rq.fn.spec.SLO; h < horizon {
			horizon = h
		}
	}
	if rq.attempts > retryMaxAttempts || now+backoff >= horizon {
		rq.rec.Failed = true
		detail := "abandoned: " + reason
		p.finishUnserved(rq, EvDrop, detail, func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindDrop, Rule: "retry-abandoned", Outcome: detail,
				Inputs: []decisions.KV{
					kvI("attempts", rq.attempts),
					kvI("max_attempts", retryMaxAttempts),
					kvF("backoff", backoff),
					kvF("horizon", horizon),
				},
			}
		})
		return
	}
	rq.rec.Retries++
	p.logEvent(EvRetry, rq.fn.spec.Name, reason, transition{
		rq: rq,
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindRetry, Rule: "fault-retry", Outcome: reason,
				Inputs: []decisions.KV{kvF("backoff", backoff)},
			}
		},
	})
	p.opts.Obs.AsyncMark("retry", "retry", rq.rec.Func, rq.rec.ID, now, reason)
	p.eng.After(backoff, func() { p.route(rq) })
}

// retryBackoff is the deterministic backoff before retry attempt number
// `attempt` (1-based) of request id: a capped exponential,
// multiplied by a jitter in [0.5, 1.5) derived from the request ID and
// attempt number. Without jitter, every request a fault strands retries
// at the exact same instant and the thundering herd re-collides; seeding
// the jitter from the request identity (FNV-1a, no shared RNG stream)
// keeps same-seed runs bit-reproducible. The jitter applies after the
// cap, so the worst case is 1.5x retryBackoffCap.
func retryBackoff(id, attempt int) float64 {
	b := retryBaseBackoff * math.Pow(2, float64(attempt-1))
	if b > retryBackoffCap {
		b = retryBackoffCap
	}
	return b * (0.5 + retryJitter(id, attempt))
}

// retryJitter hashes (id, attempt) to [0, 1).
func retryJitter(id, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(attempt))
	h.Write(buf[:])
	// Top 53 bits -> uniform dyadic rational in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}
