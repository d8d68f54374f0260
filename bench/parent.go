package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads. Units,
// directions and bounds live only there.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

const specPath = "../BENCHMARK.json"

func loadSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(specPath)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", specPath, err)
	}
	return s, nil
}

// report is the file the benchmark writes: out/BENCH.json for a full
// run, out/BENCH-<workload>.json for a single-workload run.
type report struct {
	Host      *hostInfo                  `json:"host,omitempty"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Failures   []string              `json:"failures,omitempty"`
	EndToEnd   map[string]metricStat `json:"end_to_end"`
	PerLayer   map[string]metricStat `json:"per_layer,omitempty"`
	SchedShare map[string]float64    `json:"cell_sched_share,omitempty"`
	// Calibration is calibrate's time before each untraced rep: a rep's
	// host seconds are its wall_s and setup_s values times their mean
	// over calibrationRef.
	Calibration []float64    `json:"calibration_s"`
	Cells       []cellDigest `json:"cells"`
}

// workloadRuns collects one workload's child runs in the parent.
type workloadRuns struct {
	name   string
	seed   int64
	reps   []repResult // untraced
	traced []repResult
	probe  *repResult

	attempted int
	failed    int
	failures  []string
}

// launch runs one child process of the given kind and records it. The
// child is a fresh re-exec of this binary: a clean heap, and a peak RSS
// of its own.
func (wr *workloadRuns) launch(kind string, i int) {
	wr.attempted++
	cal := calibrate().Seconds()
	r, err := runChild(kind, wr.name, wr.seed, i)
	r.CalibrationS = cal
	if err != nil {
		wr.fail(err.Error())
		return
	}
	if len(r.Failures) > 0 {
		wr.fail(r.Failures...)
	}
	switch kind {
	case kindRep:
		wr.reps = append(wr.reps, r)
	case kindTraced:
		wr.traced = append(wr.traced, r)
	case kindProbe:
		wr.probe = &r
	}
}

func (wr *workloadRuns) fail(msgs ...string) {
	wr.failed++
	for _, m := range msgs {
		wr.failures = append(wr.failures, fmt.Sprintf("%s: %s", wr.name, m))
	}
}

func runChild(kind, wname string, seed int64, i int) (repResult, error) {
	var r repResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", wname,
		"-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(i))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s child: %w", kind, err)
	}
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("%s child output: %w", kind, err)
	}
	return r, nil
}

// check compares simulated outputs: each traced rep with the untraced
// rep of the same inputs, which shows the timed policy does not perturb
// the run, and every rep the golden file pins with its pinned cells.
func (wr *workloadRuns) check(g *golden) {
	untraced := map[int][]cellDigest{}
	for _, r := range wr.reps {
		untraced[r.Rep] = r.Cells
	}
	for _, r := range wr.traced {
		if ref, ok := untraced[r.Rep]; ok && !sameDigests(r.Cells, ref) {
			wr.fail(fmt.Sprintf("traced rep %d: simulated outputs differ from the untraced rep", r.Rep))
		}
	}
	if g == nil {
		return
	}
	pinned := g.Workloads[wr.name]
	for _, r := range append(append([]repResult(nil), wr.reps...), wr.traced...) {
		if r.Rep < len(pinned) && !sameDigests(r.Cells, pinned[r.Rep]) {
			wr.fail(fmt.Sprintf("%s rep %d: simulated outputs differ from %s", r.Kind, r.Rep, goldenPath(g.Seed)))
		}
	}
}

// pooled returns the SLO hit (%) and completed requests per simulated
// second over the FluidFaaS cells.
func pooled(cells []cellDigest) (sloPct, rps float64) {
	var hits, reqs, done int
	var dur float64
	for _, c := range cells {
		if !strings.HasPrefix(c.Cell, "fluidfaas/") {
			continue
		}
		hits += c.SLOHits
		reqs += c.Requests
		done += c.Completed
		dur += c.Duration
	}
	return 100 * ratio(float64(hits), float64(reqs)), ratio(float64(done), dur)
}

// endToEnd returns the untraced reps' end-to-end metric values. Host
// times are scaled by the reps' mean calibration (see calibrate), so the
// run's mean wall_s is its total host time over its total kernel time.
func (wr *workloadRuns) endToEnd() map[string][]float64 {
	v := map[string][]float64{}
	var cal []float64
	for _, r := range wr.reps {
		cal = append(cal, r.CalibrationS)
	}
	speed := calibrationRef / newStat("", cal).Mean
	for _, r := range wr.reps {
		_, rps := pooled(r.Cells)
		v["wall_s"] = append(v["wall_s"], r.WallS*speed)
		v["setup_s"] = append(v["setup_s"], r.SetupS*speed)
		v["alloc_mb"] = append(v["alloc_mb"], r.AllocMB)
		v["max_rss_mb"] = append(v["max_rss_mb"], r.MaxRSSMB)
		v["throughput_rps"] = append(v["throughput_rps"], rps)
	}
	return v
}

// perLayer returns the traced reps' and the probe's per-layer values.
func (wr *workloadRuns) perLayer() map[string][]float64 {
	v := map[string][]float64{}
	wall := map[int]float64{}
	for _, r := range wr.reps {
		wall[r.Rep] = r.WallS
	}
	for _, r := range wr.traced {
		for k, x := range r.Layers {
			v[k] = append(v[k], x)
		}
		slo, _ := pooled(r.Cells)
		v["metrics.slo_hit_pct"] = append(v["metrics.slo_hit_pct"], slo)
		if w, ok := wall[r.Rep]; ok {
			v["bench.trace_overhead_x"] = append(v["bench.trace_overhead_x"], r.WallS/w)
		}
	}
	if wr.probe != nil {
		for k, x := range wr.probe.Layers {
			v[k] = append(v[k], x)
		}
	}
	return v
}

// stats summarises values under the spec's metrics; a listed metric
// with no values, or a value under an unlisted name, is a failure.
func (wr *workloadRuns) stats(specs []metricSpec, values map[string][]float64) map[string]metricStat {
	out := map[string]metricStat{}
	for _, m := range specs {
		vs, ok := values[m.Name]
		if !ok {
			wr.fail("metric " + m.Name + " was not measured")
			continue
		}
		out[m.Name] = newStat(m.Unit, vs)
		delete(values, m.Name)
	}
	for name := range values {
		wr.fail("metric " + name + " is not listed in BENCHMARK.json")
	}
	return out
}

func (wr *workloadRuns) report(spec benchSpec, traced bool) *workloadReport {
	rep := &workloadReport{EndToEnd: wr.stats(spec.EndToEnd, wr.endToEnd())}
	if traced {
		rep.PerLayer = wr.stats(spec.PerLayer, wr.perLayer())
		if len(wr.traced) > 0 {
			rep.SchedShare = wr.traced[0].CellShare
		}
	}
	for _, r := range wr.reps {
		rep.Calibration = append(rep.Calibration, r.CalibrationS)
	}
	if len(wr.reps) > 0 {
		rep.Cells = wr.reps[0].Cells
	}
	rep.Attempted, rep.Failed, rep.Failures = wr.attempted, wr.failed, wr.failures
	return rep
}

// writeOutputs writes the report and, for each traced workload, its
// phase spans as out/trace-<workload>.json.
func writeOutputs(dir, file string, rep *report, runs []*workloadRuns) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644); err != nil {
		return err
	}
	for _, wr := range runs {
		if len(wr.traced) == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := writeChromeTrace(&buf, wr.traced[0].Spans); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+wr.name+".json"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// workloadMain runs one workload over the input set a budget of seconds
// holds and prints the result as the last line of stdout: the mean over
// reps of each end-to-end metric with trace 0, of each per-layer metric
// with trace 1.
func workloadMain(spec benchSpec, w workload, seed int64, seconds int, traced bool, outDir string) int {
	wr := &workloadRuns{name: w.name, seed: seed}
	kind, n := kindRep, w.inputs(seconds)
	if traced {
		// The probe, the untraced rep that traced rep 0 is checked and
		// timed against, and traced reps of the first minInputs inputs:
		// per-layer metrics have no bounds, so fewer inputs will do.
		wr.launch(kindProbe, 0)
		wr.launch(kindRep, 0)
		kind, n = kindTraced, minInputs
	}
	for i := range n {
		wr.launch(kind, i)
	}
	g, err := loadGolden(seed)
	if err != nil {
		wr.fail(err.Error())
	}
	wr.check(g)
	wrep := wr.report(spec, traced)
	rep := &report{Seed: seed, Workloads: map[string]*workloadReport{w.name: wrep}}
	if err := writeOutputs(outDir, "BENCH-"+w.name+".json", rep, []*workloadRuns{wr}); err != nil {
		wr.fail(err.Error())
	}
	for _, f := range wr.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}

	stats, specs := wrep.EndToEnd, spec.EndToEnd
	if traced {
		stats, specs = wrep.PerLayer, spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range specs {
		metrics[m.Name] = value{stats[m.Name].Mean, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   wr.failed == 0,
		"attempted": wr.attempted,
		"failed":    min(wr.failed, wr.attempted),
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if wr.failed > 0 {
		return 1
	}
	return 0
}

// fullMain runs every workload: untraced reps of its first minInputs
// inputs, round-robin so host-speed drift spreads evenly, then one
// traced rep and one observer probe per workload, then (on a pinned
// seed) the paper's headline cells. It writes out/BENCH.json and prints
// a summary.
func fullMain(spec benchSpec, seed int64, outDir string) int {
	var runs []*workloadRuns
	for _, w := range workloads {
		runs = append(runs, &workloadRuns{name: w.name, seed: seed})
	}
	for i := 0; i < minInputs; i++ {
		for _, wr := range runs {
			fmt.Fprintf(os.Stderr, "rep %d/%d %s\n", i+1, minInputs, wr.name)
			wr.launch(kindRep, i)
		}
	}
	for _, wr := range runs {
		fmt.Fprintf(os.Stderr, "traced %s\n", wr.name)
		wr.launch(kindTraced, 0)
		wr.launch(kindProbe, 0)
	}
	g, err := loadGolden(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep := &report{Host: readHost(), Seed: seed, Workloads: map[string]*workloadReport{}}
	for _, wr := range runs {
		wr.check(g)
	}
	if g != nil && len(g.Headline) > 0 {
		fmt.Fprintln(os.Stderr, "headline cells at 300 s")
		runs[0].attempted++
		h, err := runChild(kindHeadline, "paper", seed, 0)
		switch {
		case err != nil:
			runs[0].fail(err.Error())
		case len(h.Failures) > 0:
			runs[0].fail(h.Failures...)
		case !sameDigests(h.Cells, g.Headline):
			runs[0].fail("headline cells differ from the golden file")
		}
	}
	failed := 0
	for _, wr := range runs {
		rep.Workloads[wr.name] = wr.report(spec, true)
		failed += wr.failed
	}
	if err := writeOutputs(outDir, "BENCH.json", rep, runs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printSummary(spec, rep)
	for _, wr := range runs {
		for _, f := range wr.failures {
			fmt.Println("FAIL", f)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func printSummary(spec benchSpec, rep *report) {
	fmt.Printf("seed %d\n", rep.Seed)
	fmt.Printf("%-9s %-15s %-8s %3s %14s %14s %14s\n", "workload", "metric", "unit", "n", "mean", "q1", "q3")
	for _, w := range workloads {
		wrep := rep.Workloads[w.name]
		for _, m := range spec.EndToEnd {
			s := wrep.EndToEnd[m.Name]
			fmt.Printf("%-9s %-15s %-8s %3d %14.6g %14.6g %14.6g\n",
				w.name, m.Name, m.Unit, s.N, s.Mean, s.Q1, s.Q3)
		}
		fmt.Printf("%-9s %-15s %d attempted, %d failed\n", w.name, "runs", wrep.Attempted, wrep.Failed)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, w := range workloads {
		for _, name := range names {
			s := rep.Workloads[w.name].PerLayer[name]
			fmt.Printf("%-9s %-28s %14.6g %s\n", w.name, name, s.Mean, s.Unit)
		}
	}
}
