package ffaas

import (
	"math"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
)

// appFunction adapts a dnn application to the Function interface the way
// a developer would write it.
type appFunction struct {
	app     dnn.App
	variant dnn.Variant
}

func (f appFunction) Name() string { return f.app.Name + "/" + f.variant.String() }

func (f appFunction) DefDAG(b *Builder) {
	handles := make([]Handle, len(f.app.Models))
	preds := make(map[int][]int)
	for _, e := range f.app.Edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	for i, m := range f.app.Models {
		mod := &StaticModule{
			ModuleName: m.String(),
			Mem:        m.MemGB(f.variant),
			Out:        m.OutMB(f.variant),
			Exec:       m.ExecProfile(f.variant),
		}
		var ins []Handle
		for _, p := range preds[i] {
			ins = append(ins, handles[p])
		}
		if len(ins) == 0 {
			ins = []Handle{Input}
		}
		handles[i] = b.Reg(mod, ins...)
	}
}

func mediumApp0() appFunction {
	return appFunction{app: dnn.Get(dnn.ImageClassification), variant: dnn.Medium}
}

func TestBuildDAGMatchesDNN(t *testing.T) {
	fn := mediumApp0()
	d, err := BuildDAG(fn)
	if err != nil {
		t.Fatal(err)
	}
	want := fn.app.BuildDAG(fn.variant)
	if d.Len() != want.Len() {
		t.Fatalf("DAG len = %d, want %d", d.Len(), want.Len())
	}
	if math.Abs(d.TotalMemGB()-want.TotalMemGB()) > 1e-9 {
		t.Errorf("mem %v != %v", d.TotalMemGB(), want.TotalMemGB())
	}
	for i := range d.Len() {
		id := dag.NodeID(i)
		e1, ok1 := d.Node(id).ExecOn(mig.Slice2g)
		e2, ok2 := want.Node(id).ExecOn(mig.Slice2g)
		if ok1 != ok2 || math.Abs(e1-e2) > 1e-12 {
			t.Errorf("component %d exec on 2g = %v, %v; want %v, %v", i, e1, ok1, e2, ok2)
		}
	}
}

func TestProfileMode(t *testing.T) {
	fn := mediumApp0()
	d, profs, err := Profile(fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != d.Len() {
		t.Fatalf("profiles = %d, want %d", len(profs), d.Len())
	}
	for _, p := range profs {
		if p.MemGB <= 0 || len(p.Exec) == 0 {
			t.Errorf("profile %s incomplete: %+v", p.Name, p)
		}
		// Medium components all fit 1g.
		if _, ok := p.Exec[mig.Slice1g]; !ok {
			t.Errorf("profile %s missing 1g entry", p.Name)
		}
	}
}

// The Fig. 7 example: five modules with a fork at the entry.
func TestFig7StyleFunction(t *testing.T) {
	mk := func(name string, ms float64) *StaticModule {
		exec := map[mig.SliceType]float64{}
		for _, st := range mig.SliceTypes {
			exec[st] = ms
		}
		return &StaticModule{ModuleName: name, Mem: 2, Out: 4, Exec: exec}
	}
	fn := funcDef{
		name: "fig7",
		def: func(b *Builder) {
			x1 := b.Reg(mk("m1", 0.01), Input)
			x2 := b.Reg(mk("m2", 0.01), Input)
			x3 := b.Reg(mk("m3", 0.02), x1, x2)
			x4 := b.Reg(mk("m4", 0.02), x3)
			b.Reg(mk("m5", 0.02), x4)
		},
	}
	d, err := BuildDAG(fn)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("nodes = %d, want 5", d.Len())
	}
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Errorf("segments = %d, want 4 (fork collapses)", len(segs))
	}
}

type funcDef struct {
	name string
	def  func(b *Builder)
}

func (f funcDef) Name() string      { return f.name }
func (f funcDef) DefDAG(b *Builder) { f.def(b) }
