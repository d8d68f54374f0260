package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// repResult is one child run, as the child reports it on stdout.
type repResult struct {
	Workload string `json:"workload"`
	Kind     string `json:"kind"`
	Rep      int    `json:"rep"`
	Seed     int64  `json:"seed"` // the rep's input, inputSeed(run seed, Rep)

	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	// MaxRSSMB is the child's peak RSS (VmHWM). The rusage the parent
	// gets on wait is no use: Linux carries the parent's high-water
	// mark into the child across exec.
	MaxRSSMB float64 `json:"max_rss_mb"`
	// CalibrationS is calibrate's time just before the child started,
	// taken by the parent.
	CalibrationS float64 `json:"calibration_s"`

	Cells     []cellDigest       `json:"cells"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	CellShare map[string]float64 `json:"cell_sched_share,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// Child run kinds.
const (
	kindRep      = "rep"      // untraced rep: the end-to-end numbers
	kindTraced   = "traced"   // rep with the timed policy and layer counters
	kindProbe    = "probe"    // observer cost on the workload's probe cell
	kindHeadline = "headline" // the paper's 300 s FluidFaaS and ESG cells
)

const mb = 1e6

// runRep runs every cell of w once in this process.
func runRep(w workload, seed int64, traced bool) repResult {
	res := repResult{Workload: w.name, Seed: seed, Kind: kindRep}
	if traced {
		res.Kind = kindTraced
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := newTracer()
	acc := &repAcc{traced: traced}
	rs := recorders{}
	if w.observed {
		rs = allRecorders
	}
	stop := t.begin("workload " + w.name)
	for _, c := range w.cells(seed) {
		d, err := runCell(c, rs, t, acc)
		res.Cells = append(res.Cells, d)
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
	}
	stop()
	runtime.ReadMemStats(&m1)

	res.SetupS = acc.setup().Seconds()
	res.WallS = acc.wall().Seconds()
	res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	if traced {
		res.Layers = acc.layers()
		res.Layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		res.Layers["go.gc_cpu_frac"] = m1.GCCPUFraction
		res.Layers["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
		res.CellShare = acc.cellShare
		t.spans[0].Args = map[string]any{ // the workload span
			"place_batch_calls":  len(acc.place),
			"place_batch_s":      acc.placeTotal.Seconds(),
			"place_batch_p99_us": p99us(acc.place),
		}
		res.Spans = t.spans
	}
	return res
}

// runProbe measures what each recorder costs on w's probe cell: the
// run span with only that recorder (or all three) attached, divided by
// a bare run of the same cell, plus the cost and size of each export.
// All five runs must simulate identically, since recorders only observe.
func runProbe(w workload, seed int64) repResult {
	c := probeCell(w, seed)
	res := repResult{Workload: w.name, Seed: seed, Kind: kindProbe}
	variants := []recorders{{}, {obs: true}, {decisions: true}, {util: true}, allRecorders}
	runs := make([]*repAcc, len(variants))
	for i, rs := range variants {
		acc := &repAcc{}
		d, err := runCell(c, rs, newTracer(), acc)
		runs[i] = acc
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
		d.Exports = nil
		if i == 0 {
			res.Cells = []cellDigest{d}
		} else if !sameDigests(res.Cells, []cellDigest{d}) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: recorders %+v changed the simulation", c.name(), rs))
		}
	}
	bare := runs[0].run.Seconds()
	all := runs[4]
	ex := func(name string) exportStat { return all.exports[name] }
	res.Layers = map[string]float64{
		"obs.record_x":        runs[1].run.Seconds() / bare,
		"decisions.record_x":  runs[2].run.Seconds() / bare,
		"util.record_x":       runs[3].run.Seconds() / bare,
		"observers.record_x":  all.run.Seconds() / bare,
		"obs.chrome.s":        ex("chrome").dur.Seconds(),
		"obs.chrome.mb":       float64(ex("chrome").bytes) / mb,
		"obs.chrome.alloc_mb": float64(ex("chrome").alloc) / mb,
		"obs.prom.s":          ex("prom").dur.Seconds(),
		"decisions.export.s":  ex("decisions").dur.Seconds(),
		"decisions.export.mb": float64(ex("decisions").bytes) / mb,
		"decisions.records":   float64(all.decisionRecords),
		"util.report.s":       ex("util.report").dur.Seconds(),
		"util.export.s":       ex("util").dur.Seconds(),
		"util.export.mb":      float64(ex("util").bytes) / mb,
		"analytics.analyze.s": ex("analytics").dur.Seconds(),
	}
	return res
}

// runHeadline runs the paper's 300 s FluidFaaS and ESG cells.
func runHeadline(seed int64) repResult {
	res := repResult{Workload: "paper", Seed: seed, Kind: kindHeadline}
	acc := &repAcc{}
	for _, c := range headlineCells(seed) {
		d, err := runCell(c, recorders{}, newTracer(), acc)
		res.Cells = append(res.Cells, d)
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
	}
	return res
}

// sameDigests reports whether two cell lists are identical, comparing
// their JSON encodings (floats included bit for bit).
func sameDigests(a, b []cellDigest) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// childMain runs one child of the given kind for rep i of a run with
// seed seed, and prints its result.
func childMain(kind, wname string, seed int64, i int) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	var res repResult
	switch kind {
	case kindRep:
		res = runRep(w, inputSeed(seed, i), false)
	case kindTraced:
		res = runRep(w, inputSeed(seed, i), true)
	case kindProbe:
		res = runProbe(w, inputSeed(seed, i))
	case kindHeadline:
		res = runHeadline(seed)
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	res.Rep = i
	if res.MaxRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSMB reads this process's peak resident set size from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64) // "  1234 kB"
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb * 1024 / mb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
