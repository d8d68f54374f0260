package experiments

import (
	"strings"
	"testing"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// shortCfg keeps experiment tests fast while preserving the regimes.
func shortCfg() Config {
	c := DefaultConfig()
	c.Duration = 150
	c.Drain = 30
	return c
}

func TestWorkloadDefinitions(t *testing.T) {
	if Light.Variant().String() != "small" ||
		Medium.Variant().String() != "medium" ||
		Heavy.Variant().String() != "large" {
		t.Error("workload->variant mapping broken (§6)")
	}
	if len(appsFor(Light)) != 4 || len(appsFor(Medium)) != 4 {
		t.Error("light/medium should run all four applications")
	}
	if len(appsFor(Heavy)) != 3 {
		t.Error("heavy should exclude app 3 (Table 5 NULL)")
	}
	for _, w := range Workloads {
		if len(w.appRPS()) != len(appsFor(w)) {
			t.Errorf("%v: rate vector arity mismatch", w)
		}
	}
}

func TestSpecsForAssignsSLOs(t *testing.T) {
	specs := SpecsFor(Medium, 1.5)
	if len(specs) != 4 {
		t.Fatalf("specs = %d, want 4", len(specs))
	}
	for i, s := range specs {
		if s.ID != i || s.SLO <= 0 || s.DAG == nil || len(s.Parts) == 0 {
			t.Errorf("spec %d incomplete: %+v", i, s)
		}
	}
}

func TestTraceForDeterministicPerWorkload(t *testing.T) {
	cfg := shortCfg()
	a := TraceFor(Medium, cfg)
	b := TraceFor(Medium, cfg)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("trace generation not deterministic")
	}
	c := TraceFor(Heavy, cfg)
	if len(c.Requests) == len(a.Requests) {
		t.Log("note: different workloads produced equal request counts (unlikely)")
	}
}

// The central end-to-end shape of the paper: FluidFaaS matches the
// baselines in light workloads and clearly beats ESG in medium and
// heavy, in both SLO hit rate and throughput.
func TestEndToEndShape(t *testing.T) {
	// ESG's queues need time to build up; the short config understates
	// the medium-workload gap, so this test runs the full duration.
	e := paperMatrix()
	light := e.Results[Light]
	if d := light["fluidfaas"].SLOHit - light["esg"].SLOHit; d < -0.10 {
		t.Errorf("light: fluidfaas %.2f far below esg %.2f", light["fluidfaas"].SLOHit, light["esg"].SLOHit)
	}
	med := e.Results[Medium]
	if med["fluidfaas"].SLOHit < med["esg"].SLOHit*1.3 {
		t.Errorf("medium: fluidfaas SLO %.2f not clearly above esg %.2f (paper: up to +90%%)",
			med["fluidfaas"].SLOHit, med["esg"].SLOHit)
	}
	heavy := e.Results[Heavy]
	if heavy["fluidfaas"].Throughput < heavy["esg"].Throughput*1.25 {
		t.Errorf("heavy: fluidfaas throughput %.1f not clearly above esg %.1f (paper: +75%%)",
			heavy["fluidfaas"].Throughput, heavy["esg"].Throughput)
	}
	if heavy["fluidfaas"].SLOHit <= heavy["esg"].SLOHit {
		t.Errorf("heavy: fluidfaas SLO %.2f should beat esg %.2f",
			heavy["fluidfaas"].SLOHit, heavy["esg"].SLOHit)
	}
	// ESG and INFless share the non-pipeline execution model: similar
	// medium/heavy results (§7.1).
	if d := heavy["esg"].Throughput - heavy["infless"].Throughput; d < -3 || d > 3 {
		t.Errorf("heavy: esg %.1f vs infless %.1f should be similar",
			heavy["esg"].Throughput, heavy["infless"].Throughput)
	}

	// Table renderers produce complete tables.
	for _, tab := range []Table{
		e.Fig9SLOHitRates(), e.Fig10Throughput(),
		e.FigCDF(Light), e.FigCDF(Medium), e.FigCDF(Heavy),
		e.Fig14Breakdown(), e.Table6ResourceCost(), e.Fig16Utilization(),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("table %q has no rows", tab.Title)
		}
		s := tab.String()
		if !strings.Contains(s, tab.Title) {
			t.Errorf("table render missing title")
		}
	}

	// Fig. 14 shape: FluidFaaS pays transfer overhead but saves far
	// more queueing under medium/heavy (§7.3).
	for _, w := range []Workload{Medium, Heavy} {
		esgB := e.Results[w]["esg"].Breakdown
		ffB := e.Results[w]["fluidfaas"].Breakdown
		if ffB.Transfer <= esgB.Transfer {
			t.Errorf("%v: fluidfaas transfer %.3f should exceed esg %.3f", w, ffB.Transfer, esgB.Transfer)
		}
		if ffB.Queue >= esgB.Queue {
			t.Errorf("%v: fluidfaas queue %.2f should be below esg %.2f", w, ffB.Queue, esgB.Queue)
		}
	}

	// Fig. 16 shape: heavy-workload GPU utilisation is far higher under
	// FluidFaaS (paper: +75% during bursts).
	ffUtil := e.Results[Heavy]["fluidfaas"].UtilGPCs
	esgUtil := e.Results[Heavy]["esg"].UtilGPCs
	if ffUtil.Mean() < esgUtil.Mean()*1.2 {
		t.Errorf("heavy utilisation: fluidfaas %.2f vs esg %.2f", ffUtil.Mean(), esgUtil.Mean())
	}

	if ffUtil.Len() == 0 || len(ffUtil.Values) != ffUtil.Len() {
		t.Error("heavy fluidfaas utilisation timeline empty or ragged")
	}
}

// TestEndToEndRejectsSharedObservers: RunEndToEnd's nine parallel runs
// would all write an observer or callback set in its config, so it
// panics naming the field before any run starts.
func TestEndToEndRejectsSharedObservers(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Obs", func(c *Config) { c.Obs = obs.NewRecorder() }},
		{"Decisions", func(c *Config) { c.Decisions = decisions.NewRecorder(0) }},
		{"Util", func(c *Config) { c.Util = util.NewLedger() }},
		{"OnEvent", func(c *Config) { c.OnEvent = func(platform.Event) {} }},
		{"OnPlatform", func(c *Config) { c.OnPlatform = func(*platform.Platform) {} }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := shortCfg()
			tc.set(&cfg)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.field) {
					t.Errorf("panic %q does not name %s", msg, tc.field)
				}
			}()
			RunEndToEnd(cfg)
		})
	}
}

func TestMotivationShape(t *testing.T) {
	r := RunMotivation(shortCfg())
	// ESG demands substantially more than required (paper: 167% at the
	// 83rd second; exact magnitude depends on the trace).
	if r.PeakOverdemand < 0.5 {
		t.Errorf("peak over-demand = %.2f, want clearly positive", r.PeakOverdemand)
	}
	// Fig. 3b: at the peak the 1g slices sit idle under ESG.
	c1g := r.SliceUsageAtPeak["1g.10gb"]
	if c1g[0] != 0 {
		t.Errorf("1g slices active at peak: %d (ESG cannot use them at medium)", c1g[0])
	}
	c4g := r.SliceUsageAtPeak["4g.40gb"]
	if c4g[0] == 0 {
		t.Error("no 4g activity at peak")
	}
	if len(r.Times) == 0 || len(r.Times) != len(r.Occupied) || len(r.Times) != len(r.Required) {
		t.Error("motivation series ragged")
	}
	if tab := Fig3Table(r); len(tab.Rows) < 3 {
		t.Error("Fig3Table incomplete")
	}
}

func TestFragmentationStory(t *testing.T) {
	cases := RunFragmentation()
	if len(cases) != 2 {
		t.Fatalf("cases = %d, want 2", len(cases))
	}
	if !strings.Contains(cases[0].Monolithic, "no free slice fits") {
		t.Errorf("monolithic placement should fail on fragments: %q", cases[0].Monolithic)
	}
	if cases[1].Pipeline == "infeasible" || cases[1].Pipeline == "" {
		t.Errorf("FluidFaaS pipeline over fragments should be feasible: %q", cases[1].Pipeline)
	}
	if !strings.Contains(cases[1].Pipeline, "->") {
		t.Errorf("expected a multi-stage pipeline, got %q", cases[1].Pipeline)
	}
	if tab := Fig4Table(cases); len(tab.Rows) != 2 {
		t.Error("Fig4Table incomplete")
	}
}

func TestKeepAliveShape(t *testing.T) {
	cfg := shortCfg()
	cfg.Duration = 600
	r := RunKeepAlive(cfg)
	if len(r.OccupiedPct) != 8 {
		t.Fatalf("per-GPU rows = %d, want 8", len(r.OccupiedPct))
	}
	// The exclusive keep-alive gap: occupied far exceeds active (paper
	// Fig. 5: avg active 16.1%, <35% for 90% of the time).
	if r.AvgActive > 0.35 {
		t.Errorf("avg active share = %.2f, want well below occupied", r.AvgActive)
	}
	if r.FracBelow35 < 0.60 {
		t.Errorf("time below 35%% activity = %.2f, want most of the run", r.FracBelow35)
	}
	occAny := false
	for i := range r.OccupiedPct {
		if r.OccupiedPct[i] > 0 {
			occAny = true
		}
		if r.ActivePct[i] > r.OccupiedPct[i]+1e-9 {
			t.Errorf("gpu%d active %.2f exceeds occupied %.2f", i, r.ActivePct[i], r.OccupiedPct[i])
		}
	}
	if !occAny {
		t.Error("no GPU was ever occupied")
	}
	if tab := Fig5Table(r); len(tab.Rows) < 10 {
		t.Error("Fig5Table incomplete")
	}
}

func TestPartitionsShape(t *testing.T) {
	cfg := shortCfg()
	rs := RunPartitions(cfg)
	if len(rs) != 3 {
		t.Fatalf("partition rows = %d, want 3", len(rs))
	}
	for _, r := range rs {
		if r.Gain < 1.15 {
			t.Errorf("%s: fluidfaas gain %.2fx, want clearly above 1 (paper: 1.70-1.78x)", r.Scheme, r.Gain)
		}
	}
	// P2 has no 4g slice, so ESG is limited to 3 GPCs per GPU there and
	// FluidFaaS's advantage peaks (paper: P2 gain is the largest).
	if rs[2].Scheme != "P2" || rs[2].Gain <= rs[0].Gain {
		t.Errorf("P2 gain %.2fx should exceed Hybrid gain %.2fx", rs[2].Gain, rs[0].Gain)
	}
	if tab := Fig15Table(rs); len(tab.Rows) != 3 {
		t.Error("Fig15Table incomplete")
	}
}

func TestRunSystemAblations(t *testing.T) {
	cfg := shortCfg()
	full := RunSystem(&scheduler.FluidFaaS{}, Heavy, cfg)
	noPipe := RunSystem(&scheduler.FluidFaaS{DisableTimeSharing: true, DisableMigration: true}, Heavy, cfg)
	// Even without time sharing and migration, pipelining alone must
	// beat ESG's throughput in heavy workloads.
	esg := RunSystem(&scheduler.ESG{}, Heavy, cfg)
	if noPipe.Throughput < esg.Throughput {
		t.Errorf("pipeline-only fluidfaas %.1f below esg %.1f", noPipe.Throughput, esg.Throughput)
	}
	if full.Migrations < 0 || noPipe.Migrations != 0 {
		t.Errorf("migration ablation leaked: %d", noPipe.Migrations)
	}
}
