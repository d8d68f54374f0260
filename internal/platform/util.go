package platform

import (
	"strconv"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/util"
)

// This file feeds the GPU utilization ledger (internal/obs/util): a pure
// observer that classifies every slice-second of the run into busy /
// warm-idle / cold-idle / stranded / quarantined, so the run can answer
// "where did the GPU-seconds go" for hardware the way the span trace
// answers it for requests. Every hook here is a no-op when
// Options.Util is nil (a gate, or the ledger's nil-receiver methods),
// and none of them mutates platform state or schedules engine work — a
// run with the ledger attached is bit-for-bit identical to one without
// (enforced by TestObserversDisabledIdentity).

// computeUtilHostable fills the per-slice-type placeability table: a
// type is hostable when at least one registered deployable unit fits it
// — a function that can run monolithically there, or (under a
// pipelining policy) any partition stage whose memory and operators fit.
// A free slice of a non-hostable type is stranded capacity: it can never
// serve anything under the current fragmentation, which is exactly the
// waste §4 attributes to coarse MIG allocation.
func (p *Platform) computeUtilHostable() {
	for _, fn := range p.funcs {
		for _, t := range mig.SliceTypes {
			if fn.mono(t).OK {
				p.utilHostable[t] = true
			}
		}
		if !p.opts.Policy.Pipelines() {
			continue
		}
		d := fn.spec.DAG
		for _, part := range fn.spec.Parts {
			for _, st := range part.Stages {
				mem := st.MemGB(d)
				for _, t := range mig.SliceTypes {
					if p.utilHostable[t] || mem > float64(t.MemGB()) {
						continue
					}
					// A stage covering the whole DAG is the monolithic
					// deployment and carries its compute floor.
					if len(st.Nodes) == d.Len() && t.GPCs() < d.MonoMinGPCs {
						continue
					}
					if _, ok := st.ExecOn(d, t); ok {
						p.utilHostable[t] = true
					}
				}
			}
		}
	}
}

// utilRegister opens the ledger's slice timelines, in topology order
// (the order every export walks).
func (p *Platform) utilRegister() {
	l := p.opts.Util
	if l == nil {
		return
	}
	p.computeUtilHostable()
	for _, node := range p.cl.Nodes {
		for _, g := range node.GPUs {
			for _, sl := range g.Slices {
				l.Register(sl.ID(), node.ID, g.ID, sl.Type.String(),
					sl.Type.GPCs(), float64(sl.Type.MemGB()), 0, p.utilBase(sl))
			}
		}
	}
}

// utilBase classifies a slice's current base (no-work-running) state.
// In order of precedence: unusable hardware (faulted or quarantined at
// any layer) is out of placement regardless of ownership; an owned
// slice is warm keepalive; a free one is placeable capacity or
// stranded fragmentation waste. The partition is fixed, so a slice is
// never Reconfiguring.
func (p *Platform) utilBase(sl *mig.Slice) util.State {
	switch {
	case !sl.Usable() || !p.cl.Nodes[sl.GPU.Node].Healthy():
		return util.Quarantined
	case !sl.Free():
		return util.WarmIdle
	case p.utilHostable[sl.Type]:
		return util.ColdIdle
	default:
		return util.Stranded
	}
}

// utilTouch re-derives and records the base state of the given slices at
// the current instant. logEvent calls it with the slices of every
// transition that can change a slice's classification (launch/release,
// pool grow/shrink, health flips, quarantine/probation). The ledger
// keeps only the last base written at an instant and ignores unchanged
// states, so touching a slice that a later event of the same teardown
// touches again is safe and cheap.
func (p *Platform) utilTouch(sls ...*mig.Slice) {
	l := p.opts.Util
	if l == nil {
		return
	}
	now := p.eng.Now()
	for _, sl := range sls {
		l.SetBase(sl.ID(), now, p.utilBase(sl))
	}
}

// sliceWork records one load, exec or transfer interval of fn's work on
// a slice in both sinks that track hardware work: a span on the slice's
// trace track and a busy claim in the utilization ledger. Work is
// recorded upfront with its future end; a teardown transition
// (logEvent) truncates it in both sinks. Exec spans also carry the
// slice type and the declared profile time, the drift analytics'
// baseline.
func (p *Platform) sliceWork(sl *mig.Slice, s util.State, fn *Function, req, stage int, start, end, declared float64) {
	id := sl.ID()
	if r := p.opts.Obs; r != nil {
		switch s {
		case util.BusyLoad:
			r.SliceSpan("load", fn.loadSpan, id, fn.spec.ID, req, stage, start, end)
		case util.BusyExec:
			r.StageSpan(fn.execSpan, id, sl.Type.String(), fn.spec.ID, req, stage, start, end, declared)
		default:
			r.SliceSpan("transfer", "transfer", id, fn.spec.ID, req, stage, start, end)
		}
	}
	p.opts.Util.Busy(id, s, start, end)
}

// utilSample records one fragmentation-analytics sample: the scalar
// index decomposed into free vs stranded capacity, plus the largest free
// slice a registered stage could still be placed on (the headroom a
// repartition policy would watch). fi is the already-computed
// mig.FragmentationIndex of this sampling instant.
func (p *Platform) utilSample(now, fi float64) {
	l := p.opts.Util
	if l == nil {
		return
	}
	s := util.FragSample{Time: now, Index: fi}
	for _, node := range p.cl.Nodes {
		for _, g := range node.GPUs {
			for _, sl := range g.Slices {
				if !sl.Placeable() {
					continue
				}
				gp := sl.Type.GPCs()
				s.FreeGPCs += gp
				if !p.utilHostable[sl.Type] {
					s.StrandedGPCs += gp
					s.StrandedGB += float64(sl.Type.MemGB())
				} else if gp > s.LargestPlaceableGPCs {
					s.LargestPlaceableGPCs = gp
				}
			}
		}
	}
	l.AddFragSample(s)
}

// utilClose resolves the ledger at the end of the run and exports it:
// per-slice state Gantt segments on the chrome hardware tracks (cat
// "state", which the busy-seconds export ignores) and the cluster
// state-seconds as a labeled Prometheus series.
func (p *Platform) utilClose(end float64) {
	l := p.opts.Util
	if l == nil {
		return
	}
	l.Close(end)
	r := p.opts.Obs
	if r == nil {
		return
	}
	rep := l.Report()
	for _, sr := range rep.Slices {
		for _, seg := range sr.Segments {
			r.SliceSpan("state", seg.State.String(), sr.ID, -1, -1, -1,
				seg.Start, seg.End)
		}
	}
	for _, st := range util.States {
		r.SetSeries("fluidfaas_util_state_seconds",
			"Slice-seconds of the run by ledger state (cluster roll-up).",
			rep.Cluster.Get(st), [2]string{"state", st.String()})
		r.SetSeries("fluidfaas_util_state_gpc_seconds",
			"GPC-weighted GPU-seconds of the run by ledger state (cluster roll-up).",
			rep.ClusterGPC.Get(st), [2]string{"state", st.String()})
	}
	for _, nr := range rep.Nodes {
		r.SetSeries("fluidfaas_util_busy_gpc_seconds",
			"GPC-weighted productive (exec+load+transfer) seconds per node.",
			nr.GPCSeconds.Busy(), [2]string{"node", strconv.Itoa(nr.Node)})
	}
}
