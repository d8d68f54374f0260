package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"fluidfaas/internal/experiments"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/platform"
)

var update = flag.Bool("update", false, "rewrite the golden file of seed 42 (runs every workload at full size)")

// TestMatchesRunSystem checks that the benchmark's cell runner, bare
// and with the timed policy, reproduces experiments.RunSystem on all
// nine paper cells (20 s traces keep the test short).
func TestMatchesRunSystem(t *testing.T) {
	for _, c := range matrixCells(42, 20) {
		var recs []metrics.RequestRecord
		cfg := c.cfg
		cfg.OnPlatform = func(p *platform.Platform) { recs = p.Collector().Records() }
		r := experiments.RunSystem(newPolicy(c.system), c.level, cfg)
		hits := 0
		for _, rec := range recs {
			if rec.SLOHit() {
				hits++
			}
		}
		want := cellDigest{
			Cell: c.name(), Duration: c.cfg.Duration,
			Requests: r.Total, Completed: r.Completed, Rejected: r.Rejected,
			SLOHits: hits, SLOHit: r.SLOHit, Throughput: r.Throughput,
			P50: r.LatencyP50, P95: r.LatencyP95, P99: r.LatencyP99,
			Breakdown: r.Breakdown, GPUTime: r.GPUTime, MIGTime: r.MIGTime,
			Launched: r.Launched, Evictions: r.Evictions, Migrations: r.Migrations,
			Events: r.Engine.Executed, Records: hashRecords(recs),
		}
		for _, traced := range []bool{false, true} {
			got, err := runCell(c, recorders{}, newTracer(), &repAcc{traced: traced})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v:\n got %+v\nwant %+v", c.name(), traced, got, want)
			}
		}
	}
}

// tiny returns w with every trace cut to 10 simulated seconds, long
// enough for the first instances to warm up and serve.
func tiny(w workload) workload {
	cells := w.cells
	w.cells = func(seed int64) []cell {
		out := cells(seed)
		for i := range out {
			out[i].cfg.Duration = 10
		}
		return out
	}
	return w
}

// TestWorkloadsEmitListedMetrics runs every workload end to end at a
// tiny size, untraced, traced and probed, and checks that exactly the
// metrics BENCHMARK.json lists are emitted, under well-formed names.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		w := tiny(w)
		wr := &workloadRuns{name: w.name, seed: 1}
		wr.reps = []repResult{runRep(w, 1, false)}
		wr.reps[0].CalibrationS = calibrate().Seconds()
		wr.traced = []repResult{runRep(w, 1, true)}
		probe := runProbe(w, 1)
		wr.probe = &probe
		for _, r := range []repResult{wr.reps[0], wr.traced[0], probe} {
			if len(r.Failures) > 0 {
				t.Errorf("%s %s: %v", w.name, r.Kind, r.Failures)
			}
		}
		wr.check(nil)
		rep := wr.report(spec, true)
		if rep.Failed > 0 {
			t.Errorf("%s: %v", w.name, rep.Failures)
		}
		if len(rep.EndToEnd) != len(spec.EndToEnd) || len(rep.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				w.name, len(rep.EndToEnd), len(rep.PerLayer), len(spec.EndToEnd), len(spec.PerLayer))
		}
	}
}

// TestGolden checks the pinned seed-42 outputs against the headline
// numbers ROADMAP.md quotes for the paper's 300 s matrix. With -update
// it first regenerates the file by running every workload at full size.
func TestGolden(t *testing.T) {
	if *update {
		g := golden{Seed: 42, Workloads: map[string][][]cellDigest{}}
		for _, w := range workloads {
			for i := 0; i < goldenReps; i++ {
				r := runRep(w, inputSeed(42, i), false)
				if len(r.Failures) > 0 {
					t.Fatalf("%s rep %d: %v", w.name, i, r.Failures)
				}
				g.Workloads[w.name] = append(g.Workloads[w.name], r.Cells)
			}
		}
		g.Headline = runHeadline(42).Cells
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(42), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, err := loadGolden(42)
	if err != nil || g == nil {
		t.Fatalf("golden file of seed 42: %v", err)
	}
	for _, w := range workloads {
		if got := len(g.Workloads[w.name]); got != goldenReps {
			t.Errorf("%s: %d reps pinned, want %d", w.name, got, goldenReps)
		}
	}
	// SLO hit (%) and, on heavy, throughput (req/s) at one decimal.
	want := map[string][2]string{
		"fluidfaas/light": {"98.2", ""}, "esg/light": {"99.2", ""},
		"fluidfaas/medium": {"74.6", ""}, "esg/medium": {"41.9", ""},
		"fluidfaas/heavy": {"17.7", "30.7"}, "esg/heavy": {"1.3", "19.2"},
	}
	for _, c := range g.Headline {
		w, ok := want[c.Cell]
		if !ok {
			t.Errorf("unexpected headline cell %s", c.Cell)
			continue
		}
		delete(want, c.Cell)
		slo, tput := fmt.Sprintf("%.1f", 100*c.SLOHit), fmt.Sprintf("%.1f", c.Throughput)
		if slo != w[0] || (w[1] != "" && tput != w[1]) {
			t.Errorf("%s: SLO hit %s%%, %s req/s; ROADMAP quotes %s%%, %s req/s", c.Cell, slo, tput, w[0], w[1])
		}
	}
	if len(want) > 0 {
		t.Errorf("headline cells missing: %v", want)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		s := newStat("s", tc.data)
		if got := [3]float64{s.Q1, s.Median, s.Q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

// TestCalibratedMean pins how a run's host time is reported: its total
// host time over its total kernel time, in reference-host seconds.
func TestCalibratedMean(t *testing.T) {
	wr := &workloadRuns{reps: []repResult{
		{WallS: 1, SetupS: 0.1, CalibrationS: 0.1},
		{WallS: 3, SetupS: 0.3, CalibrationS: 0.3},
	}}
	v := wr.endToEnd()
	want := 4 / 0.4 * calibrationRef
	if got := newStat("s", v["wall_s"]).Mean; math.Abs(got-want) > 1e-12 {
		t.Errorf("wall_s = %v, want %v", got, want)
	}
	if got := newStat("s", v["setup_s"]).Mean; math.Abs(got-want/10) > 1e-12 {
		t.Errorf("setup_s = %v, want %v", got, want/10)
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	st := func(q1, med, q3 float64) metricStat { return metricStat{Q1: q1, Median: med, Q3: q3} }
	for _, tc := range []struct {
		a, b metricStat
		want string
	}{
		{st(1, 1, 1), st(1.05, 1.05, 1.05), "ok"},
		{st(1, 1, 1), st(1.2, 1.2, 1.2), "worse"},
		{st(1, 1, 1), st(0.5, 0.5, 0.5), "ok"},
		{st(0.8, 1, 1.2), st(1.2, 1.2, 1.2), "unresolved"},
	} {
		if got := verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
	}
}
