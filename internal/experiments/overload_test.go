package experiments

import (
	"testing"
)

func TestOverloadStudy(t *testing.T) {
	pts := RunOverload(shortCfg(), []float64{1, 3, 32})
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for _, pt := range pts {
		if len(pt.Systems) != 4 {
			t.Fatalf("x%.0f: systems = %d, want 3 plain + overload",
				pt.Multiplier, len(pt.Systems))
		}
		for _, s := range pt.Systems[:3] {
			if s.Rejected != 0 {
				t.Errorf("x%.0f %s: plain system rejected %d",
					pt.Multiplier, s.System, s.Rejected)
			}
		}
		oc := pt.Systems[3]
		if oc.System != "fluidfaas+overload" {
			t.Fatalf("x%.0f: last system = %q", pt.Multiplier, oc.System)
		}
		if oc.Fairness <= 0 || oc.Fairness > 1 {
			t.Errorf("x%.0f: fairness = %v, want (0,1]", pt.Multiplier, oc.Fairness)
		}
	}
	low, high := pts[0].Systems[3], pts[1].Systems[3]
	if high.Rejected == 0 {
		t.Error("overloaded run produced no fast-fail rejections")
	}
	if high.TimeoutDrops != 0 {
		t.Errorf("admission control should pre-empt timeout drops, got %d",
			high.TimeoutDrops)
	}
	// Graceful degradation: goodput under 3x offered load must hold
	// within 20% of the nominal-load goodput (in practice it rises,
	// since admission keeps the served fraction at capacity).
	if high.Goodput < 0.8*low.Goodput {
		t.Errorf("goodput collapsed under overload: %.1f at x3 vs %.1f at x1",
			high.Goodput, low.Goodput)
	}
	// And the controller must beat plain FluidFaaS where it matters.
	plain := pts[1].Systems[2]
	if high.Goodput <= plain.Goodput {
		t.Errorf("overload control did not improve goodput: %.1f vs plain %.1f",
			high.Goodput, plain.Goodput)
	}
	// Graceful degradation rests on admission alone: at 32x offered
	// load nothing times out, and goodput holds at or above the 1x
	// point's.
	x32 := pts[2].Systems[3]
	if x32.TimeoutDrops != 0 {
		t.Errorf("x32: %d timeout drops, want 0 with admission on", x32.TimeoutDrops)
	}
	if x32.Goodput < low.Goodput {
		t.Errorf("goodput collapsed at x32: %.1f vs %.1f at x1", x32.Goodput, low.Goodput)
	}
}

func TestOverloadTableShape(t *testing.T) {
	pts := []OverloadPoint{{
		Multiplier: 2,
		Systems: []SystemResult{{
			System: "x", Goodput: 1.5, SLOHit: 0.5, Rejected: 3, Fairness: 0.9,
		}},
	}}
	tab := OverloadTable(pts)
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(tab.Header) {
		t.Fatalf("table shape wrong: %+v", tab)
	}
	if tab.Rows[0][1] != "x" || tab.Rows[0][4] != "3" {
		t.Errorf("row content wrong: %v", tab.Rows[0])
	}
}
