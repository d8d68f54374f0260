package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/scheduler"
)

// launchMonos launches n loaded monolithic instances of fn, one on each
// of the node's first n free slices, and returns fn.instances.
func launchMonos(t testing.TB, p *Platform, fn *Function, n int) []*Instance {
	t.Helper()
	node := p.cl.Nodes[0]
	free := node.FreeSlices()
	if len(free) < n {
		t.Fatalf("%d free slices, want %d", len(free), n)
	}
	for _, sl := range free[:n] {
		m := fn.mono(sl.Type)
		if !m.OK {
			t.Fatalf("%s does not run monolithically on %v", fn.spec.Name, sl.Type)
		}
		p.launchInstance(fn, node, m.Plan, []*mig.Slice{sl}, 0)
	}
	return fn.instances
}

// saturate fills inst to capacity through admit, as routing would.
func saturate(p *Platform, inst *Instance) {
	for inst.hasCapacity() {
		inst.admit(p, &request{fn: inst.fn})
	}
}

// TestRoutedInstanceOrders: each routing order picks the first instance
// with room in its order (ascending latency, descending latency, or
// cyclically from the round-robin cursor) and passes over exactly the
// full instances ahead of it, in that order.
func TestRoutedInstanceOrders(t *testing.T) {
	asc, desc, rr := RouteLatencyAsc, RouteLatencyDesc, RouteRoundRobin
	for _, c := range []struct {
		order  RoutingOrder
		cursor int
		full   []int // positions saturated before the pick
		want   int   // picked position, -1 for none
		passed []int // positions passed over, in routing order
	}{
		{asc, 0, nil, 0, nil},
		{asc, 0, []int{0}, 1, []int{0}},
		{asc, 0, []int{0, 1}, 2, []int{0, 1}},
		{asc, 0, []int{1}, 0, nil},
		{asc, 0, []int{0, 1, 2}, -1, []int{0, 1, 2}},
		{desc, 0, nil, 2, nil},
		{desc, 0, []int{2}, 1, []int{2}},
		{desc, 0, []int{2, 1}, 0, []int{2, 1}},
		{desc, 0, []int{0, 1, 2}, -1, []int{2, 1, 0}},
		{rr, 0, nil, 0, nil},
		{rr, 2, nil, 2, nil},
		{rr, 4, nil, 1, nil}, // the cursor is taken modulo the instance count
		{rr, 2, []int{2}, 0, []int{2}},
		{rr, 1, []int{1, 2}, 0, []int{1, 2}},
		{rr, 1, []int{0, 1}, 2, []int{1}},
		{rr, 1, []int{0, 1, 2}, -1, []int{1, 2, 0}},
	} {
		dec := decisions.NewRecorder(0)
		p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
			Policy: &scheduler.FluidFaaS{}, Seed: 1, Routing: c.order, Decisions: dec,
		})
		fn := p.funcs[0]
		insts := launchMonos(t, p, fn, 3)
		for i := 1; i < len(insts); i++ {
			if insts[i-1].plan.Latency >= insts[i].plan.Latency {
				t.Fatalf("instances not latency-ascending: %v then %v",
					insts[i-1].plan.Latency, insts[i].plan.Latency)
			}
		}
		for _, i := range c.full {
			saturate(p, insts[i])
		}
		fn.rrNext = c.cursor
		got, k := p.pickInstance(fn, true)
		var wantCands []decisions.Cand
		for _, i := range c.passed {
			wantCands = append(wantCands, instCand(insts[i]))
		}
		switch {
		case c.want < 0 && got != nil:
			t.Errorf("%+v: picked %s, want none", c, got.id)
		case c.want >= 0 && got != insts[c.want]:
			t.Errorf("%+v: picked %v, want %s", c, got, insts[c.want].id)
		case c.want >= 0 && k != len(c.passed):
			t.Errorf("%+v: offset %d, want %d", c, k, len(c.passed))
		case !slices.Equal(p.candBuf, wantCands):
			t.Errorf("%+v: passed over %+v, want %+v", c, p.candBuf, wantCands)
		}
		if fn.rrNext != c.cursor {
			t.Errorf("%+v: the pick moved the round-robin cursor to %d", c, fn.rrNext)
		}
	}

	// No instances at all: nothing to pick, and no division by zero
	// under round-robin.
	p := New(smallCluster(1), specsFor(t, dnn.Small)[:1], Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 1, Routing: rr,
	})
	if got, _ := p.pickInstance(p.funcs[0], true); got != nil {
		t.Errorf("picked %s from no instances", got.id)
	}

	// Round-robin rotates over admits: with room everywhere, requests
	// land on the instances in turn, and the cursor wraps to the first.
	insts := launchMonos(t, p, p.funcs[0], 3)
	if insts[0].capacity < 2 {
		t.Fatalf("%s has capacity %d, want at least 2", insts[0].id, insts[0].capacity)
	}
	for i, want := range []int{0, 1, 2, 0} {
		held := len(insts[want].inflight)
		p.InjectRequest(0, i)
		if len(insts[want].inflight) != held+1 {
			t.Fatalf("request %d did not land on %s", i, insts[want].id)
		}
	}
}

// TestOpenSetSearch checks the open set's next and prev against a
// linear scan over random sets spanning several words.
func TestOpenSetSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 130, 200} {
		for trial := 0; trial < 20; trial++ {
			bitsOn := make([]bool, n)
			s := make(openSet, (n+63)/64)
			for i := range bitsOn {
				if rng.Intn(4) == 0 {
					bitsOn[i] = true
					s[i/64] |= 1 << (i % 64)
				}
			}
			for i := 0; i < n; i++ {
				next, prev := -1, -1
				for j := i; j < n; j++ {
					if bitsOn[j] {
						next = j
						break
					}
				}
				for j := i; j >= 0; j-- {
					if bitsOn[j] {
						prev = j
						break
					}
				}
				if got := s.next(i); got != next {
					t.Fatalf("n=%d: next(%d) = %d, want %d", n, i, got, next)
				}
				if got := s.prev(i); got != prev {
					t.Fatalf("n=%d: prev(%d) = %d, want %d", n, i, got, prev)
				}
			}
			if got := s.next(n); got != -1 {
				t.Fatalf("n=%d: next past the end = %d", n, got)
			}
			if got := s.prev(-1); got != -1 {
				t.Fatalf("prev(-1) = %d", got)
			}
		}
	}
}

// openSetCell runs a seeded FluidFaaS cell with every subsystem that
// moves an instance's capacity on: slice, GPU and node faults, gray
// failures with hedging, swapping, admission control and pipeline
// migration. check, when set, runs after every lifecycle event (ev)
// and every completion (ev nil).
func openSetCell(t *testing.T, order RoutingOrder, check func(p *Platform, ev *Event)) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	opts := richOptions(nil)
	opts.Routing = order
	opts.Faults = &faults.Spec{
		SliceRate: 0.03, SliceMTTR: 30, GPURate: 0.01, NodeRate: 0.01,
		DegradedRate: 0.05, DegradedMTTR: 60,
	}
	var p *Platform
	if check != nil {
		opts.OnComplete = func(metrics.RequestRecord) { check(p, nil) }
	}
	p = newRich(specs, opts)
	if check != nil {
		p.Subscribe(func(ev Event) { check(p, &ev) })
	}
	p.Run(flatTrace(specs, 6, 240, 5), 60)
	return p
}

// TestOpenSetMatchesScan: under each routing order, every function's
// open set equals a hasCapacity scan of its instances after every
// lifecycle event and every completion, and the records hash to what
// the router that scanned every instance per arrival produced.
func TestOpenSetMatchesScan(t *testing.T) {
	var migrated, swapped int
	for _, c := range []struct {
		order RoutingOrder
		want  string
	}{
		{RouteLatencyAsc, "d895b49960fb5fdbbfac6a002e5c640465ae002c88b21aa2b682d034fc357be5"},
		{RouteLatencyDesc, "41b304c60bd935c671fdbb885f1c53e80e6a54537581b9d667873ce8be1d9276"},
		{RouteRoundRobin, "b166239da4baf44b2ef955a39fac53d17472a3bf3a08f6eb0c0432859638d376"},
	} {
		checks, bad, faulted := 0, "", map[string]int{}
		p := openSetCell(t, c.order, func(p *Platform, ev *Event) {
			checks++
			if ev != nil && ev.Kind == EvFault {
				faulted[ev.Detail]++
			}
			if bad == "" {
				bad = openSetMismatch(p)
			}
		})
		if bad != "" {
			t.Errorf("order %d: %s", c.order, bad)
		}
		if got := recordsSHA(t, p); got != c.want {
			t.Errorf("order %d: records sha256 = %s, want %s", c.order, got, c.want)
		}
		if checks < p.Collector().Len() {
			t.Errorf("order %d: %d checks for %d records", c.order, checks, p.Collector().Len())
		}
		if len(faulted) != 3 || p.Hedges() == 0 || p.Rejected() == 0 || p.Retries() == 0 {
			t.Errorf("order %d: faults %v, %d hedges, %d rejections, %d retries: the cell must exercise each",
				c.order, faulted, p.Hedges(), p.Rejected(), p.Retries())
		}
		migrated += p.Migrations()
		swapped += p.SwapIns()
	}
	if migrated == 0 || swapped == 0 {
		t.Errorf("%d migrations, %d swap-ins over the three orders, want both", migrated, swapped)
	}
}

// openSetMismatch describes the first instance whose position or open
// bit disagrees with a scan of fn.instances, or returns "".
func openSetMismatch(p *Platform) string {
	for _, fn := range p.funcs {
		for i, inst := range fn.instances {
			if inst.pos != i {
				return fmt.Sprintf("t=%.3f: %s at position %d has pos %d", p.eng.Now(), inst.id, i, inst.pos)
			}
			if on := fn.open[i/64]>>(i%64)&1 == 1; on != inst.hasCapacity() {
				return fmt.Sprintf("t=%.3f: %s has open bit %v, hasCapacity %v",
					p.eng.Now(), inst.id, on, inst.hasCapacity())
			}
		}
		if i := fn.open.next(len(fn.instances)); i >= 0 {
			return fmt.Sprintf("t=%.3f: %s has open bit %d set past its %d instances",
				p.eng.Now(), fn.spec.Name, i, len(fn.instances))
		}
	}
	return ""
}

// BenchmarkRoute times the routing pick over 64 exclusive instances,
// all full or only the last in routing order with room, with decision
// provenance off and on (on, each passed-over instance becomes a typed
// candidate).
func BenchmarkRoute(b *testing.B) {
	for _, lastOpen := range []bool{false, true} {
		for _, dec := range []bool{false, true} {
			b.Run(fmt.Sprintf("last-open=%v/decisions=%v", lastOpen, dec), func(b *testing.B) {
				p := New(smallCluster(22), specsFor(b, dnn.Small)[:1], Options{
					Policy: &scheduler.ESG{}, Seed: 1,
				})
				fn := p.funcs[0]
				insts := launchMonos(b, p, fn, 64)
				for _, inst := range insts[:63] {
					saturate(p, inst)
				}
				if !lastOpen {
					saturate(p, insts[63])
				}
				if got, _ := p.pickInstance(fn, dec); (got != nil) != lastOpen {
					b.Fatalf("picked %v with last-open=%v", got, lastOpen)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.pickInstance(fn, dec)
				}
			})
		}
	}
}
