package dnn

import (
	"math"
	"testing"

	"fluidfaas/internal/mig"
)

// TestTable5MinimumSlices pins the minimum-slice matrix of paper
// Table 5 for both the baseline and FluidFaaS columns.
func TestTable5MinimumSlices(t *testing.T) {
	type row struct {
		app      AppID
		variant  Variant
		baseline string // "" means NULL
		fluid    string
	}
	rows := []row{
		{ImageClassification, Small, "1g.10gb", "1g.10gb"},
		{ImageClassification, Medium, "2g.20gb", "1g.10gb"},
		{ImageClassification, Large, "3g.40gb", "2g.20gb"},
		{DepthRecognition, Small, "1g.10gb", "1g.10gb"},
		{DepthRecognition, Medium, "2g.20gb", "1g.10gb"},
		{DepthRecognition, Large, "3g.40gb", "2g.20gb"},
		{BackgroundElimination, Small, "1g.10gb", "1g.10gb"},
		{BackgroundElimination, Medium, "2g.20gb", "1g.10gb"},
		{BackgroundElimination, Large, "3g.40gb", "2g.20gb"},
		{ExpandedClassification, Small, "2g.20gb", "1g.10gb"},
		{ExpandedClassification, Medium, "4g.40gb", "1g.10gb"},
		{ExpandedClassification, Large, "", ""},
	}
	for _, r := range rows {
		a := Get(r.app)
		got, ok := a.MinSliceBaseline(r.variant)
		if r.baseline == "" {
			if ok {
				t.Errorf("%s/%s baseline = %v, want NULL", a.Name, r.variant, got)
			}
		} else if !ok || got.String() != r.baseline {
			t.Errorf("%s/%s baseline = %v (%v), want %s", a.Name, r.variant, got, ok, r.baseline)
		}
		gotF, okF := a.MinSliceFluid(r.variant)
		if r.fluid == "" {
			if okF {
				t.Errorf("%s/%s fluid = %v, want NULL", a.Name, r.variant, gotF)
			}
		} else if !okF || gotF.String() != r.fluid {
			t.Errorf("%s/%s fluid = %v (%v), want %s", a.Name, r.variant, gotF, okF, r.fluid)
		}
	}
}

// TestTable4Composition pins the model composition of paper Table 4.
func TestTable4Composition(t *testing.T) {
	want := map[AppID][]ModelID{
		ImageClassification:    {SuperResolution, Segmentation, Classification},
		DepthRecognition:       {Deblur, SuperResolution, DepthEstimation},
		BackgroundElimination:  {SuperResolution, Deblur, BackgroundRemoval},
		ExpandedClassification: {Deblur, SuperResolution, BackgroundRemoval, Segmentation, Classification},
	}
	for id, models := range want {
		a := Get(id)
		if len(a.Models) != len(models) {
			t.Fatalf("%s has %d models, want %d", a.Name, len(a.Models), len(models))
		}
		for i := range models {
			if a.Models[i] != models[i] {
				t.Errorf("%s model %d = %v, want %v", a.Name, i, a.Models[i], models[i])
			}
		}
	}
	if len(Apps()) != 4 {
		t.Errorf("Apps() = %d, want 4", len(Apps()))
	}
}

func TestExecTimeScaling(t *testing.T) {
	// Sublinear speedup: fewer GPCs is slower, but per-GPC efficiency is
	// higher on smaller slices (the property FluidFaaS exploits).
	for _, m := range Models {
		t7, ok7 := m.ExecTime(Small, mig.Slice7g)
		t1, ok1 := m.ExecTime(Small, mig.Slice1g)
		if !ok7 || !ok1 {
			t.Fatalf("%v small should fit 1g and 7g", m)
		}
		if t1 <= t7 {
			t.Errorf("%v: t(1g)=%v should exceed t(7g)=%v", m, t1, t7)
		}
		if t1 >= 7*t7 {
			t.Errorf("%v: t(1g)=%v should be sublinear vs 7·t(7g)=%v", m, t1, 7*t7)
		}
		want := t7 * math.Pow(7, Alpha)
		if math.Abs(t1-want) > 1e-12 {
			t.Errorf("%v: t(1g)=%v, want %v", m, t1, want)
		}
	}
}

func TestExecTimeOOM(t *testing.T) {
	// Large segmentation (14 GB) must not fit a 1g.10gb slice.
	if _, ok := Segmentation.ExecTime(Large, mig.Slice1g); ok {
		t.Error("large segmentation fits 1g.10gb")
	}
	if _, ok := Segmentation.ExecTime(Large, mig.Slice2g); !ok {
		t.Error("large segmentation does not fit 2g.20gb")
	}
}

func TestExecProfileOmitsOOM(t *testing.T) {
	p := Segmentation.ExecProfile(Large)
	if _, ok := p[mig.Slice1g]; ok {
		t.Error("profile contains OOM slice type")
	}
	for _, st := range []mig.SliceType{mig.Slice2g, mig.Slice3g, mig.Slice4g, mig.Slice7g} {
		if _, ok := p[st]; !ok {
			t.Errorf("profile missing %v", st)
		}
	}
}

func TestBuildDAGValid(t *testing.T) {
	for _, a := range Apps() {
		for _, v := range Variants {
			d := a.BuildDAG(v)
			if err := d.Validate(); err != nil {
				t.Errorf("%s/%s DAG invalid: %v", a.Name, v, err)
			}
			if d.Len() != len(a.Models) {
				t.Errorf("%s DAG has %d nodes, want %d", a.Name, d.Len(), len(a.Models))
			}
			if got := d.TotalMemGB(); math.Abs(got-a.TotalMemGB(v)) > 1e-9 {
				t.Errorf("%s/%s DAG mem %v != app mem %v", a.Name, v, got, a.TotalMemGB(v))
			}
		}
	}
}

func TestApp3DAGHasBranch(t *testing.T) {
	a := Get(ExpandedClassification)
	d := a.BuildDAG(Medium)
	segs, err := d.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	// deblur opens the optional super-res branch: segments are
	// [{deblur, super-res}, {bg}, {seg}, {cls}].
	if len(segs) != 4 {
		t.Fatalf("app3 segments = %d, want 4", len(segs))
	}
	if len(segs[0].Nodes) != 2 {
		t.Errorf("first segment = %v, want deblur+super-res", segs[0].Nodes)
	}
	if !a.Optional[1] {
		t.Error("super-resolution should be marked optional in app 3")
	}
}

func TestReferenceLatencyAndSLO(t *testing.T) {
	a := Get(ImageClassification)
	ref, ok := a.ReferenceLatency(Medium)
	if !ok || ref <= 0 {
		t.Fatalf("ReferenceLatency = %v, %v", ref, ok)
	}
	// Reference must equal total exec on 2g plus intra transfers.
	want := 0.0
	for _, m := range a.Models {
		e, _ := m.ExecTime(Medium, mig.Slice2g)
		want += e
	}
	want += 2 * IntraTransfer
	if math.Abs(ref-want) > 1e-12 {
		t.Errorf("ReferenceLatency = %v, want %v", ref, want)
	}
	slo, ok := a.SLOLatency(Medium, 1.5)
	if !ok || math.Abs(slo-1.5*ref) > 1e-12 {
		t.Errorf("SLOLatency = %v, want %v", slo, 1.5*ref)
	}
	if _, ok := Get(ExpandedClassification).ReferenceLatency(Large); ok {
		t.Error("excluded variant has a reference latency")
	}
	if _, ok := Get(ExpandedClassification).SLOLatency(Large, 1.5); ok {
		t.Error("excluded variant has an SLO")
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range Variants {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("huge"); err == nil {
		t.Error("ParseVariant accepted bogus variant")
	}
}

func TestInvalidIDsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"model":   func() { _ = ModelID(99).MemGB(Small) },
		"variant": func() { _ = SuperResolution.MemGB(Variant(9)) },
		"app":     func() { Get(AppID(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid %s did not panic", name)
				}
			}()
			f()
		}()
	}
}
