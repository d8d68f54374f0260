package platform

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fluidfaas/internal/dnn"
)

// TestRecycledRequestsUnreferenced runs the rich configuration (slice
// faults and gray degradations with retries, gray scoring with hedging,
// the swap tier and time sharing, with pipelined instances among the
// exclusive ones), once with admission control, which rejects, and once
// without, where the pending overflow times out instead. At every
// lifecycle event it checks that no pooled request is waiting, admitted,
// queued or in service anywhere, or half of a live hedge pair, and that
// no pooled stage job has a hop pending. The checking run scribbles over
// every pooled request and job, so a stale read of one shows up in the
// records, which must equal those of a run whose pools are emptied at
// every event.
func TestRecycledRequestsUnreferenced(t *testing.T) {
	for _, admission := range []bool{true, false} {
		t.Run(fmt.Sprintf("admission=%v", admission), func(t *testing.T) {
			checkRecycling(t, admission)
		})
	}
}

func checkRecycling(t *testing.T, admission bool) {
	specs := specsFor(t, dnn.Small)
	opts := richOptions(nil)
	opts.Faults.SliceRate = 0.05
	opts.Overload.Admission = admission
	run := func(hook func(p *Platform)) *Platform {
		p := newRich(specs, opts)
		p.Subscribe(func(Event) { hook(p) })
		p.Run(flatTrace(specs, 16, 180, 7), 60)
		return p
	}
	var events, pooled int
	pipelined, shared := false, false
	checked := run(func(p *Platform) {
		events++
		pooled = max(pooled, len(p.reqPool))
		if msg := pooledReference(p); msg != "" {
			t.Fatalf("event %d: %s", events, msg)
		}
		for _, fn := range p.funcs {
			for _, inst := range fn.instances {
				pipelined = pipelined || inst.Pipelined()
			}
		}
		for _, inv := range p.inv {
			for _, ss := range inv.shared {
				shared = shared || ss.busy()
			}
		}
		scribblePools(p)
	})
	drained := run(func(p *Platform) { p.reqPool, p.jobPool = nil, nil })

	if pooled == 0 {
		t.Fatal("no request was ever pooled")
	}
	if !pipelined {
		t.Error("the run launched no pipelined instance")
	}
	if !shared {
		t.Error("no shared slice was seen serving")
	}
	exits := map[string]int{
		"faults": checked.FaultsInjected(), "retries": checked.Retries(),
		"hedges": checked.Hedges(), "swap-ins": checked.tally[EvSwapIn],
	}
	if admission {
		exits["rejections"] = checked.Rejected()
	} else {
		exits["drops"] = checked.tally[EvDrop]
	}
	for name, n := range exits {
		if n == 0 {
			t.Errorf("the run had no %s", name)
		}
	}
	got, want := checked.Collector().Records(), drained.Collector().Records()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycling changed the records: %d records, %d with drained pools", len(got), len(want))
	}
}

// pooledReference describes the first place live platform state still
// references a pooled request or stage job, or returns "".
func pooledReference(p *Platform) string {
	reqs := make(map[*request]bool, len(p.reqPool))
	for _, rq := range p.reqPool {
		if reqs[rq] {
			return "request pooled twice"
		}
		reqs[rq] = true
	}
	jobs := make(map[*stageJob]bool, len(p.jobPool))
	for _, sj := range p.jobPool {
		if jobs[sj] {
			return "stage job pooled twice"
		}
		jobs[sj] = true
		if sj.hopFn != nil && !sj.hop.Fired() {
			return "pooled stage job has its hop pending"
		}
	}
	unpooled := func(rq *request) bool {
		if reqs[rq] {
			return false
		}
		if h := rq.hedge; h != nil && (reqs[h.primary] || reqs[h.clone]) {
			return false
		}
		return true
	}
	for _, fn := range p.funcs {
		for i := range fn.pending.Len() {
			// A stale-drop sweep nils a slot before finishing its request.
			if rq := fn.pending.At(i); rq != nil && !unpooled(rq) {
				return fn.spec.Name + ": pooled request pending"
			}
		}
		for _, inst := range fn.instances {
			for _, rq := range inst.inflight {
				if !unpooled(rq) {
					return inst.id + ": pooled request in flight"
				}
			}
		}
	}
	for _, inv := range p.inv {
		for _, ss := range inv.shared {
			for i := range ss.queue.Len() {
				// A stale-drop sweep zeroes a slot before finishing its job.
				if job := ss.queue.At(i); job.rq != nil && !unpooled(job.rq) {
					return ss.slice.ID() + ": pooled request queued"
				}
			}
			if ss.busy() && !unpooled(ss.serving.rq) {
				return ss.slice.ID() + ": pooled request in service"
			}
		}
	}
	return ""
}

// scribblePools overwrites every pooled request, and every pooled stage
// job's per-use fields, with values no live one has.
func scribblePools(p *Platform) {
	nan := math.NaN()
	for _, rq := range p.reqPool {
		*rq = request{id: -1, arrival: nan, deadline: nan, waitStart: nan, attempts: -1}
		rq.rec.Exec, rq.rec.Load, rq.rec.Transfer = nan, nan, nan
	}
	for _, sj := range p.jobPool {
		sj.inst, sj.rq, sj.si, sj.n = nil, nil, -1, -1
		sj.enqueueAt, sj.exec = nan, nan
	}
}
