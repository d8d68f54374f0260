package scheduler

import (
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
)

func reqFor(t *testing.T, id dnn.AppID, v dnn.Variant) Req {
	t.Helper()
	a := dnn.Get(id)
	d := a.BuildDAG(v)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	slo, _ := a.SLOLatency(v, 1.5)
	return Req{Func: int(id), DAG: d, Parts: parts, SLO: slo}
}

func defaultNode(n int) []NodeFree {
	out := make([]NodeFree, n)
	for i := range out {
		out[i] = NodeFree{Node: i, Free: []mig.SliceType{mig.Slice4g, mig.Slice2g, mig.Slice1g}}
	}
	return out
}

func TestPolicyFlags(t *testing.T) {
	ff := &FluidFaaS{}
	if !ff.Pipelines() || !ff.TimeSharing() || !ff.Migration() || ff.Name() != "fluidfaas" {
		t.Error("FluidFaaS flags wrong")
	}
	ffAblate := &FluidFaaS{DisableTimeSharing: true, DisableMigration: true}
	if ffAblate.TimeSharing() || ffAblate.Migration() {
		t.Error("ablation flags ignored")
	}
	esg := &ESG{}
	if esg.Pipelines() || esg.TimeSharing() || esg.Migration() || esg.Name() != "esg" {
		t.Error("ESG flags wrong")
	}
	inf := &INFlessMIG{}
	if inf.Pipelines() || inf.TimeSharing() || inf.Migration() || inf.Name() != "infless" {
		t.Error("INFless flags wrong")
	}
}

// Medium workload shape: the baselines cannot use 1g slices, FluidFaaS can.
func TestMediumPlacementShape(t *testing.T) {
	req := reqFor(t, dnn.ImageClassification, dnn.Medium)
	oneG := []NodeFree{{Node: 0, Free: []mig.SliceType{mig.Slice1g, mig.Slice1g, mig.Slice1g}}}
	for _, pol := range []Policy{&ESG{}, &INFlessMIG{}} {
		if got := pol.PlaceBatch([]Req{req}, oneG); len(got) != 0 {
			t.Errorf("%s placed a medium function on 1g-only node: %+v", pol.Name(), got)
		}
	}
	ff := &FluidFaaS{}
	got := ff.PlaceBatch([]Req{req}, oneG)
	if len(got) != 1 {
		t.Fatalf("fluidfaas failed to place on 1g fragments")
	}
	if !got[0].Plan.Pipelined() {
		t.Error("fluidfaas placement on 1g fragments should be pipelined")
	}
}

func TestBaselinesPlacementStyles(t *testing.T) {
	// A small function fits every slice. ESG's A* picks the most
	// resource-efficient slice (fewest GPC-seconds: the 1g); INFless's
	// MIG-unaware first-fit burns the first slice in scan order (the
	// 4g) — the behavioural gap behind ESG's 14% light-workload edge.
	req := reqFor(t, dnn.ImageClassification, dnn.Small)
	nodes := defaultNode(1)
	esgGot := (&ESG{}).PlaceBatch([]Req{req}, nodes)
	if len(esgGot) != 1 || esgGot[0].Plan.Stages[0].SliceType != mig.Slice1g {
		t.Errorf("esg placement = %+v, want 1g", esgGot)
	}
	infGot := (&INFlessMIG{}).PlaceBatch([]Req{req}, nodes)
	if len(infGot) != 1 || infGot[0].Plan.Stages[0].SliceType != mig.Slice4g {
		t.Errorf("infless placement = %+v, want first-fit 4g", infGot)
	}
}

func TestESGBeatsGreedyOnConflicts(t *testing.T) {
	// Two requests, one 2g and one 1g free. A medium function needs
	// >=2g; a small one fits either. Greedy in the wrong order could
	// burn the 2g on the small function; A* must place both.
	medium := reqFor(t, dnn.ImageClassification, dnn.Medium)
	small := reqFor(t, dnn.DepthRecognition, dnn.Small)
	nodes := []NodeFree{{Node: 0, Free: []mig.SliceType{mig.Slice2g, mig.Slice1g}}}
	got := (&ESG{}).PlaceBatch([]Req{small, medium}, nodes)
	if len(got) != 2 {
		t.Fatalf("ESG placed %d of 2", len(got))
	}
	byReq := map[int]Placement{}
	for _, p := range got {
		byReq[p.Req] = p
	}
	if byReq[1].Plan.Stages[0].SliceType != mig.Slice2g {
		t.Errorf("medium on %v, want 2g", byReq[1].Plan.Stages[0].SliceType)
	}
	if byReq[0].Plan.Stages[0].SliceType != mig.Slice1g {
		t.Errorf("small on %v, want 1g", byReq[0].Plan.Stages[0].SliceType)
	}
}

func TestESGRespectsDistinctSlices(t *testing.T) {
	// Three small requests, two slices: exactly two placements, on
	// distinct slices.
	req := reqFor(t, dnn.ImageClassification, dnn.Small)
	nodes := []NodeFree{{Node: 0, Free: []mig.SliceType{mig.Slice1g, mig.Slice1g}}}
	got := (&ESG{}).PlaceBatch([]Req{req, req, req}, nodes)
	if len(got) != 2 {
		t.Fatalf("placed %d, want 2", len(got))
	}
	if got[0].SliceIdx[0] == got[1].SliceIdx[0] {
		t.Error("two placements share a slice")
	}
}

func TestESGApp3MediumNeeds4g(t *testing.T) {
	req := reqFor(t, dnn.ExpandedClassification, dnn.Medium)
	no4g := []NodeFree{{Node: 0, Free: []mig.SliceType{mig.Slice3g, mig.Slice2g, mig.Slice2g}}}
	if got := (&ESG{}).PlaceBatch([]Req{req}, no4g); len(got) != 0 {
		t.Errorf("ESG placed app3/medium without a 4g slice: %+v", got)
	}
	with4g := defaultNode(1)
	got := (&ESG{}).PlaceBatch([]Req{req}, with4g)
	if len(got) != 1 || got[0].Plan.Stages[0].SliceType != mig.Slice4g {
		t.Errorf("ESG should place app3/medium on 4g: %+v", got)
	}
}

func TestFluidFaaSBatchConsumesSlices(t *testing.T) {
	req := reqFor(t, dnn.ImageClassification, dnn.Large)
	// One node with 2g+2g+1g+1g: first large placement takes 2g,2g(,1g);
	// a second identical request must not reuse them.
	nodes := []NodeFree{{Node: 0, Free: []mig.SliceType{
		mig.Slice2g, mig.Slice2g, mig.Slice1g, mig.Slice1g}}}
	got := (&FluidFaaS{}).PlaceBatch([]Req{req, req}, nodes)
	if len(got) < 1 {
		t.Fatal("nothing placed")
	}
	seen := map[int]bool{}
	for _, p := range got {
		for _, i := range p.SliceIdx {
			if seen[i] {
				t.Fatalf("slice index %d used by two placements", i)
			}
			seen[i] = true
		}
	}
}

func TestFluidFaaSPrefersMonolithicOnBigSlice(t *testing.T) {
	req := reqFor(t, dnn.ImageClassification, dnn.Medium)
	got := (&FluidFaaS{}).PlaceBatch([]Req{req}, defaultNode(1))
	if len(got) != 1 {
		t.Fatal("not placed")
	}
	if got[0].Plan.Pipelined() {
		t.Errorf("with big slices free, plan should be monolithic: %v", got[0].Plan)
	}
}

func TestINFlessSkipsUnplaceable(t *testing.T) {
	large := reqFor(t, dnn.ImageClassification, dnn.Large)
	small := reqFor(t, dnn.ImageClassification, dnn.Small)
	nodes := []NodeFree{{Node: 0, Free: []mig.SliceType{mig.Slice1g}}}
	got := (&INFlessMIG{}).PlaceBatch([]Req{large, small}, nodes)
	if len(got) != 1 || got[0].Req != 1 {
		t.Errorf("expected only the small request placed, got %+v", got)
	}
}

func TestPlaceBatchEmpty(t *testing.T) {
	for _, pol := range []Policy{&FluidFaaS{}, &ESG{}, &INFlessMIG{}} {
		if got := pol.PlaceBatch(nil, defaultNode(1)); len(got) != 0 {
			t.Errorf("%s placed requests from empty batch", pol.Name())
		}
		req := reqFor(t, dnn.ImageClassification, dnn.Small)
		if got := pol.PlaceBatch([]Req{req}, nil); len(got) != 0 {
			t.Errorf("%s placed requests with no nodes", pol.Name())
		}
	}
}

// The heavy-workload capacity gap (§7.2): on a default-partition node
// ESG fits one large instance (the 4g slice); FluidFaaS fits two (4g
// monolithic + 2g/1g pipeline) on apps whose components fit fragments.
func TestHeavyCapacityGap(t *testing.T) {
	req := reqFor(t, dnn.ImageClassification, dnn.Large)
	twoGPUs := []NodeFree{{Node: 0, Free: []mig.SliceType{
		mig.Slice4g, mig.Slice2g, mig.Slice1g,
		mig.Slice4g, mig.Slice2g, mig.Slice1g}}}
	esgGot := (&ESG{}).PlaceBatch([]Req{req, req, req}, twoGPUs)
	if len(esgGot) != 2 {
		t.Errorf("ESG placed %d large instances on 2 GPUs, want 2 (4g only)", len(esgGot))
	}
	ffGot := (&FluidFaaS{}).PlaceBatch([]Req{req, req, req}, twoGPUs)
	if len(ffGot) != 3 {
		t.Errorf("FluidFaaS placed %d large instances on 2 GPUs, want 3", len(ffGot))
	}
	gpcs := 0
	for _, p := range ffGot {
		gpcs += p.Plan.GPCs()
	}
	if gpcs < 13 {
		t.Errorf("FluidFaaS uses %d GPCs of 14, want >=13 (fragments employed)", gpcs)
	}
}

// dagWithNoProfile exercises defensive paths: a DAG whose node cannot
// run anywhere must never be placed.
func TestUnrunnableDAG(t *testing.T) {
	d := dag.New()
	d.AddNode(dag.Node{Name: "broken", MemGB: 500, Exec: map[mig.SliceType]float64{}})
	req := Req{DAG: d, Parts: nil, SLO: 1}
	for _, pol := range []Policy{&FluidFaaS{}, &ESG{}, &INFlessMIG{}} {
		if got := pol.PlaceBatch([]Req{req}, defaultNode(2)); len(got) != 0 {
			t.Errorf("%s placed an unrunnable DAG", pol.Name())
		}
	}
}
