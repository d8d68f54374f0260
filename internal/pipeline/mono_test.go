package pipeline

import (
	"math"
	"reflect"
	"testing"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
)

// TestMonoTableMatchesMonolithic: for every app × variant × slice type,
// the table entry is exactly what pipeline.Monolithic returns — OK iff
// no error, the same plan with a bit-equal latency, and the GPC-seconds
// cost — so the baselines reading the table place exactly as before.
func TestMonoTableMatchesMonolithic(t *testing.T) {
	entries := 0
	for _, id := range dnn.AppIDs {
		for _, v := range dnn.Variants {
			d := dnn.Get(id).BuildDAG(v)
			tab := NewMonoTable(d)
			fastest := math.Inf(1)
			for _, st := range mig.SliceTypes {
				e := tab[st]
				plan, err := Monolithic(d, st)
				if e.OK != (err == nil) {
					t.Fatalf("%v/%v on %v: OK=%v, Monolithic err=%v", id, v, st, e.OK, err)
				}
				if err != nil {
					continue
				}
				entries++
				if math.Float64bits(e.Plan.Latency) != math.Float64bits(plan.Latency) {
					t.Errorf("%v/%v on %v: latency %v, want %v", id, v, st, e.Plan.Latency, plan.Latency)
				}
				if !reflect.DeepEqual(e.Plan, plan) {
					t.Errorf("%v/%v on %v: plan %v, want %v", id, v, st, e.Plan, plan)
				}
				if want := float64(st.GPCs()) * plan.Latency; e.Cost != want {
					t.Errorf("%v/%v on %v: cost %v, want %v", id, v, st, e.Cost, want)
				}
				fastest = math.Min(fastest, plan.Latency)
			}
			if got := tab.Fastest(); got != fastest {
				t.Errorf("%v/%v: Fastest = %v, want %v", id, v, got, fastest)
			}
		}
	}
	if entries == 0 {
		t.Fatal("no app runs monolithically anywhere; the check is vacuous")
	}
}

// TestPlannerMonoBuiltOnce: the planner builds its table on first use
// and hands every later caller the same one.
func TestPlannerMonoBuiltOnce(t *testing.T) {
	d := dnn.Get(dnn.ImageClassification).BuildDAG(dnn.Small)
	p := NewPlanner(d, nil, 0)
	if first := p.Mono(); p.Mono() != first {
		t.Error("Mono() rebuilt the table")
	}
}
