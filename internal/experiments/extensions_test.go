package experiments

import (
	"testing"

	"fluidfaas/internal/platform"
)

func TestIsolationStudy(t *testing.T) {
	r := RunIsolation(shortCfg())
	if r.MIGThroughput <= 0 || r.MPSThroughput <= 0 {
		t.Fatalf("degenerate throughputs: %+v", r)
	}
	// Weak isolation's signature: interference slowdown above 1 and
	// non-zero cross-tenant exposure. MIG has neither by construction.
	if r.MPSMeanSlowdown <= 1.0 {
		t.Errorf("MPS mean slowdown = %.2f, want > 1 (interference)", r.MPSMeanSlowdown)
	}
	if r.MPSExposureSeconds <= 0 {
		t.Errorf("MPS exposure = %.0f, want > 0", r.MPSExposureSeconds)
	}
	tab := IsolationTable(r)
	if len(tab.Rows) != 4 {
		t.Errorf("IsolationTable rows = %d", len(tab.Rows))
	}
}

func TestReconfigStudy(t *testing.T) {
	r := RunReconfig(shortCfg())
	if r.Total == 0 {
		t.Fatal("no post-shift requests generated")
	}
	// FluidFaaS serves through the shift; the repartitioning system
	// loses the requests that arrive during its multi-minute offline
	// window.
	if r.FluidServed <= r.ReconfigServed {
		t.Errorf("fluidfaas served %d, reconfig served %d: pipelines should win",
			r.FluidServed, r.ReconfigServed)
	}
	if float64(r.FluidServed) < 0.9*float64(r.Total) {
		t.Errorf("fluidfaas served %d of %d, want nearly all", r.FluidServed, r.Total)
	}
	if r.OfflineSeconds < 200 {
		t.Errorf("offline window = %.0f s, want minutes (§2.2)", r.OfflineSeconds)
	}
	if tab := ReconfigTable(r); len(tab.Rows) != 2 {
		t.Error("ReconfigTable incomplete")
	}
}

func TestSLOSweep(t *testing.T) {
	cfg := shortCfg()
	points := RunSLOSweep(cfg, []float64{1.5, 3.0})
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, p := range points {
		if p.FFSLOHit < 0 || p.FFSLOHit > 1 || p.ESGSLOHit < 0 || p.ESGSLOHit > 1 {
			t.Errorf("hit rates out of range: %+v", p)
		}
	}
	// Looser budgets cannot hurt either system.
	if points[1].FFSLOHit < points[0].FFSLOHit-0.05 {
		t.Errorf("fluidfaas hit fell when SLO loosened: %.2f -> %.2f",
			points[0].FFSLOHit, points[1].FFSLOHit)
	}
	if tab := SLOSweepTable(points); len(tab.Rows) != 2 {
		t.Error("SLOSweepTable incomplete")
	}
	// Default scales.
	if got := RunSLOSweep(Config{Options: platform.Options{Seed: 1}, Duration: 60, Drain: 20}, nil); len(got) != 4 {
		t.Errorf("default sweep = %d points, want 4", len(got))
	}
}

func TestBatchingStudy(t *testing.T) {
	cfg := shortCfg()
	points := RunBatching(cfg, []int{1, 4})
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	// In the over-saturated loose-SLO regime, batching must raise
	// throughput substantially.
	if points[1].Throughput < points[0].Throughput*1.15 {
		t.Errorf("batch 4 throughput %.1f not clearly above batch 1 %.1f",
			points[1].Throughput, points[0].Throughput)
	}
	if tab := BatchingTable(points); len(tab.Rows) != 2 {
		t.Error("BatchingTable incomplete")
	}
}

func TestChainingStudy(t *testing.T) {
	r := RunChaining(shortCfg())
	// The paper's §5 premise: the whole-workflow function beats
	// function-per-model chaining on SLO (hop overhead + per-function
	// queueing) and uses less deployment memory (no duplicated GPU
	// runtimes).
	if r.WholeSLOHit <= r.ChainSLOHit {
		t.Errorf("whole-workflow SLO %.2f should beat chained %.2f",
			r.WholeSLOHit, r.ChainSLOHit)
	}
	if r.ChainMemoryGB <= r.WholeMemoryGB {
		t.Errorf("chained memory %.1f should exceed whole %.1f",
			r.ChainMemoryGB, r.WholeMemoryGB)
	}
	if r.ChainHopOverhead <= 0 {
		t.Error("chained run has no hop overhead")
	}
	if tab := ChainingTable(r); len(tab.Rows) != 5 {
		t.Error("ChainingTable incomplete")
	}
}
