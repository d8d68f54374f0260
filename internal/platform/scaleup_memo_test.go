package platform

import (
	"bytes"
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/scheduler"
)

// countingPolicy counts PlaceBatch calls of the policy it wraps.
type countingPolicy struct {
	scheduler.Policy
	calls int
}

func (c *countingPolicy) PlaceBatch(reqs []scheduler.Req, nodes []scheduler.NodeFree) []scheduler.Placement {
	c.calls++
	return c.Policy.PlaceBatch(reqs, nodes)
}

// TestScaleUpSkipsRepeatedEmptyRound drives scaleUp by hand on one GPU
// whose slices the test occupies and frees. A round whose requests and
// cluster free-set generation equal the last round's, which placed
// nothing, does not ask the policy. A change to the requests asks
// again, and so does any change that advances the generation, even one
// that leaves the same free slices (a slice taken and freed again, a
// node down and back up), and any round after one that placed something.
// Provenance on or off, the policy sees the same calls, and a skipped
// round records exactly the plan lookups asking again records.
func TestScaleUpSkipsRepeatedEmptyRound(t *testing.T) {
	for _, dec := range []*decisions.Recorder{nil, decisions.NewRecorder(0)} {
		pol := &countingPolicy{Policy: &scheduler.FluidFaaS{}}
		cl := smallCluster(1)
		p := New(cl, specsFor(t, dnn.Large), Options{Policy: pol, Seed: 1, Decisions: dec})
		// big needs more than a 1g slice and fits a 4g one.
		var big, other *Function
		for _, fn := range p.funcs {
			switch {
			case big == nil && !fn.mono(mig.Slice1g).OK && fn.mono(mig.Slice4g).Fits(fn.spec.SLO):
				big = fn
			case other == nil:
				other = fn
			}
		}
		if big == nil || other == nil {
			t.Fatal("no function fits 4g but not 1g")
		}
		free := cl.Nodes[0].GPUs[0].FreeSlices()
		var s1g, s4g *mig.Slice
		for _, sl := range free {
			sl.Allocate("test", 0)
			switch sl.Type {
			case mig.Slice1g:
				s1g = sl
			case mig.Slice4g:
				s4g = sl
			}
		}
		recorded := func() []decisions.Record {
			if dec == nil {
				return nil
			}
			return dec.Snapshot()
		}
		step := func(what string, wantCalls int, fns ...*Function) {
			t.Helper()
			for _, fn := range fns {
				fn.rejectDemand = 1
			}
			p.scaleUp()
			if pol.calls != wantCalls {
				t.Fatalf("decisions %v, %s: %d policy calls, want %d", dec != nil, what, pol.calls, wantCalls)
			}
		}
		step("first round", 1, big, other)
		step("repeated round", 1, big, other)
		step("fewer requests", 2, big)
		step("repeated round", 2, big)
		s1g.Release(0)
		step("1g slice freed", 3, big)
		before := len(recorded())
		step("repeated round", 3, big)
		skipped := recorded()[before:]
		if len(big.instances) != 0 {
			t.Fatal("placed a function that needs more than 1g on a 1g slice")
		}
		s4g.Release(0)
		step("4g slice freed", 4, big)
		if len(big.instances) != 1 {
			t.Fatalf("%d instances on the freed 4g slice, want 1", len(big.instances))
		}
		// The launch took the 4g slice: the free slices are those of the
		// remembered empty round again, but the last round placed.
		step("round after a placement", 5, big)
		step("repeated round", 5, big)
		// Taking the free 1g slice and freeing it again leaves the free
		// slices of the remembered round but advances the free-set
		// generation, which is the memo's key, so the policy is asked
		// again.
		s1g.Allocate("test", 0)
		s1g.Release(0)
		step("1g slice taken and freed again", 6, big)
		step("repeated round", 6, big)
		cl.Nodes[0].SetHealthy(false)
		cl.Nodes[0].SetHealthy(true)
		step("node down and back up", 7, big)
		step("repeated round", 7, big)

		if dec == nil {
			continue
		}
		if len(skipped) == 0 {
			t.Fatal("the skipped round recorded no plan lookups")
		}
		// Ask the policy directly with the round's inputs (the free
		// slices are those of the skipped round again): the records
		// must match the skipped round's, up to sequence number.
		before = len(recorded())
		views, _ := p.nodeFreeViews()
		pol.Policy.PlaceBatch([]scheduler.Req{{
			Func: big.spec.ID, DAG: big.spec.DAG, Parts: big.spec.Parts,
			SLO: big.spec.SLO, Planner: big.planner,
		}}, views)
		asked := recorded()[before:]
		for i := range asked {
			asked[i].Seq = skipped[i].Seq
		}
		if !reflect.DeepEqual(skipped, asked) {
			t.Errorf("skipped round recorded\n %+v\nasking again records\n %+v", skipped, asked)
		}
	}
}

// TestScaleUpMemoKeepsDecisions: under heavy load most scale-up rounds
// repeat one that placed nothing. A run with provenance attached must
// record exactly what it recorded when every round asked the policy:
// the golden total, per-kind counts and export digest below were taken
// from that code, which made 1593 policy calls on this run.
func TestScaleUpMemoKeepsDecisions(t *testing.T) {
	dec := decisions.NewRecorder(0)
	pol := &countingPolicy{Policy: &scheduler.FluidFaaS{}}
	specs := specsFor(t, dnn.Large)
	p := New(cluster.New(cluster.DefaultSpec()), specs, Options{Policy: pol, Seed: 5, Decisions: dec})
	p.Run(flatTrace(specs, 8, 120, 5), 30)

	if got := dec.Total(); got != 22241 {
		t.Errorf("%d decisions recorded, want 22241", got)
	}
	want := map[string]int{
		"admit": 4204, "bind": 33, "demote": 20, "drop": 144,
		"plan-hit": 17818, "plan-miss": 22,
	}
	if got := dec.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("decision counts %v, want %v", got, want)
	}
	var b bytes.Buffer
	if err := dec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(b.Bytes()); got != "7dd18ce716c308b843db39276328402d34af9afe9c684e2c2c70a80800ff7dfd" {
		t.Errorf("decisions export sha256 = %s", got)
	}
	if pol.calls >= 1593/2 {
		t.Errorf("%d policy calls for 1593 rounds; the memo skips few", pol.calls)
	}
}
