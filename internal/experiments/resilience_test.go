package experiments

import (
	"testing"

	"fluidfaas/internal/faults"
	"fluidfaas/internal/scheduler"
)

// TestFaultSpecFor: zero rate must return nil (the exact fault-free
// configuration), nonzero rates scale the GPU/node classes down.
func TestFaultSpecFor(t *testing.T) {
	if FaultSpecFor(0) != nil {
		t.Error("zero rate should disable faults entirely")
	}
	s := FaultSpecFor(0.02)
	if s == nil || !s.Enabled() {
		t.Fatal("nonzero rate produced a disabled spec")
	}
	if s.SliceRate != 0.02 || s.GPURate != 0.005 || s.NodeRate != 0.0005 {
		t.Errorf("rate scaling wrong: %+v", s)
	}
}

// TestResilienceZeroRateMatchesBaseline: the sweep's zero-rate point
// must be bit-for-bit the plain run — same records, same launches, no
// fault activity. This is the acceptance bar for the fault layer being
// purely additive.
func TestResilienceZeroRateMatchesBaseline(t *testing.T) {
	cfg := shortCfg()
	base := RunSystem(&scheduler.FluidFaaS{}, Medium, cfg)

	zero := cfg
	zero.Faults = &faults.Spec{} // explicit all-zero spec, not just nil
	faulted := RunSystem(&scheduler.FluidFaaS{}, Medium, zero)

	if base.SLOHit != faulted.SLOHit {
		t.Errorf("SLO hit differs: %v vs %v", base.SLOHit, faulted.SLOHit)
	}
	if base.Throughput != faulted.Throughput {
		t.Errorf("throughput differs: %v vs %v", base.Throughput, faulted.Throughput)
	}
	if base.Completed != faulted.Completed || base.Total != faulted.Total {
		t.Errorf("request counts differ: %d/%d vs %d/%d",
			base.Completed, base.Total, faulted.Completed, faulted.Total)
	}
	if base.Launched != faulted.Launched {
		t.Errorf("launch counts differ: %d vs %d", base.Launched, faulted.Launched)
	}
	if base.EventsTotal != faulted.EventsTotal {
		t.Errorf("event counts differ: %d vs %d", base.EventsTotal, faulted.EventsTotal)
	}
	if faulted.Faults != 0 || faulted.Retries != 0 || faulted.FailedCount != 0 {
		t.Errorf("zero-rate run shows fault activity: %d faults, %d retries, %d failed",
			faulted.Faults, faulted.Retries, faulted.FailedCount)
	}
	if faulted.Availability != 1 {
		t.Errorf("zero-rate availability = %v, want 1", faulted.Availability)
	}
}

// TestRunResilienceSweep: the sweep covers every rate for every system;
// nonzero rates inject faults deterministically and availability stays
// a valid fraction.
func TestRunResilienceSweep(t *testing.T) {
	cfg := shortCfg()
	rs := RunResilience(cfg)
	if len(rs) != len(ResilienceRates) {
		t.Fatalf("sweep has %d points, want %d", len(rs), len(ResilienceRates))
	}
	for i, r := range rs {
		if r.SliceRate != ResilienceRates[i] {
			t.Errorf("point %d rate = %v, want %v", i, r.SliceRate, ResilienceRates[i])
		}
		if len(r.Systems) != len(Systems()) {
			t.Fatalf("point %d has %d systems, want %d", i, len(r.Systems), len(Systems()))
		}
		for _, s := range r.Systems {
			if s.Availability < 0 || s.Availability > 1 {
				t.Errorf("rate %v %s: availability %v out of range",
					r.SliceRate, s.System, s.Availability)
			}
			if r.SliceRate == 0 && s.Faults != 0 {
				t.Errorf("%s: faults injected at rate zero", s.System)
			}
			if r.SliceRate > 0 && s.Faults == 0 {
				t.Errorf("%s: no faults injected at rate %v over %v s",
					s.System, r.SliceRate, cfg.Duration)
			}
		}
	}
	// Within one rate point the systems share the fault schedule: the
	// injected fault count depends only on seed, horizon and topology.
	for _, r := range rs[1:] {
		for _, s := range r.Systems[1:] {
			if s.Faults != r.Systems[0].Faults {
				t.Errorf("rate %v: fault counts differ across systems (%d vs %d)",
					r.SliceRate, s.Faults, r.Systems[0].Faults)
			}
		}
	}
	tbl := ResilienceTable(rs)
	if len(tbl.Rows) != len(ResilienceRates)*len(Systems()) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(ResilienceRates)*len(Systems()))
	}
}
