// Command fluidfaas-bench regenerates the paper's tables and figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"fluidfaas/internal/experiments"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/scheduler"
)

// experimentNames lists every valid -exp value.
var experimentNames = []string{
	"table2", "table5", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "table6", "isolation", "reconfig", "slosweep",
	"batching", "chaining", "resilience", "overload", "analytics", "swap", "gray", "all",
}

func main() {
	valid := strings.Join(experimentNames, "|")
	exp := flag.String("exp", "all", "experiment: "+valid)
	seed := flag.Int64("seed", 42, "random seed")
	duration := flag.Float64("duration", 300, "trace duration (s)")
	loads := flag.String("loads", "", "comma-separated load multipliers for -exp overload (default 1,2,4)")
	csvDir := flag.String("csv", "", "also write plot series (Fig. 3a, Fig. 16 timelines, CDFs) as CSV files into this directory")
	traceOut := flag.String("trace-out", "", "also run an instrumented fluidfaas/medium capture and write its Chrome trace-event JSON here")
	metricsOut := flag.String("metrics-out", "", "also run an instrumented fluidfaas/medium capture and write its Prometheus metrics here")
	jsonOut := flag.String("json-out", "", "write a machine-readable BENCH_<exp>.json (end-to-end matrix + span analytics) into this directory")
	flag.Parse()
	// Reject bad invocations before any experiment runs.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\nvalid -exp values: %s\n", flag.Args(), valid)
		os.Exit(2)
	}
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "unknown -exp %q\nvalid -exp values: %s\n", *exp, valid)
		os.Exit(2)
	}
	if err := experiments.CheckDuration(*duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Duration = *duration

	needE2E := map[string]bool{
		"fig9": true, "fig10": true, "fig11": true, "fig12": true,
		"fig13": true, "fig14": true, "fig16": true, "table6": true, "all": true,
	}
	var e2e *experiments.EndToEnd
	if needE2E[*exp] || *jsonOut != "" {
		e2e = experiments.RunEndToEnd(cfg)
	}

	show := func(name string, f func()) {
		if *exp == name || *exp == "all" {
			f()
		}
	}
	writeCSV := func(name string, write func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.Name())
	}
	show("table2", func() { fmt.Println(experiments.Table2SliceProfiles()) })
	show("table5", func() { fmt.Println(experiments.Table5MinimumSlices()) })
	show("fig3", func() {
		r := experiments.RunMotivation(cfg)
		fmt.Println(experiments.Fig3Table(r))
		writeCSV("fig3a.csv", func(f *os.File) error { return experiments.WriteMotivationCSV(f, r) })
	})
	show("fig4", func() { fmt.Println(experiments.Fig4Table(experiments.RunFragmentation())) })
	show("fig5", func() { fmt.Println(experiments.Fig5Table(experiments.RunKeepAlive(cfg))) })
	show("fig9", func() { fmt.Println(e2e.Fig9SLOHitRates()) })
	show("fig10", func() { fmt.Println(e2e.Fig10Throughput()) })
	show("fig11", func() { fmt.Println(e2e.FigCDF(experiments.Heavy)) })
	show("fig12", func() { fmt.Println(e2e.FigCDF(experiments.Medium)) })
	show("fig13", func() { fmt.Println(e2e.FigCDF(experiments.Light)) })
	show("fig14", func() { fmt.Println(e2e.Fig14Breakdown()) })
	show("fig15", func() { fmt.Println(experiments.Fig15Table(experiments.RunPartitions(cfg))) })
	show("fig16", func() {
		fmt.Println(e2e.Fig16Utilization())
		for _, w := range experiments.Workloads {
			for _, sys := range []string{"esg", "fluidfaas"} {
				w, sys := w, sys
				writeCSV(fmt.Sprintf("fig16_%s_%s.csv", w, sys), func(f *os.File) error {
					return experiments.WriteTimelineCSV(f, e2e.Results[w][sys].UtilGPCs)
				})
			}
		}
	})
	show("table6", func() { fmt.Println(e2e.Table6ResourceCost()) })
	show("isolation", func() { fmt.Println(experiments.IsolationTable(experiments.RunIsolation(cfg))) })
	show("reconfig", func() { fmt.Println(experiments.ReconfigTable(experiments.RunReconfig(cfg))) })
	show("slosweep", func() { fmt.Println(experiments.SLOSweepTable(experiments.RunSLOSweep(cfg, nil))) })
	show("batching", func() { fmt.Println(experiments.BatchingTable(experiments.RunBatching(cfg, nil))) })
	show("chaining", func() { fmt.Println(experiments.ChainingTable(experiments.RunChaining(cfg))) })
	show("resilience", func() { fmt.Println(experiments.ResilienceTable(experiments.RunResilience(cfg))) })
	show("overload", func() {
		var mults []float64
		if *loads != "" {
			for _, s := range strings.Split(*loads, ",") {
				m, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || !experiments.FinitePositive(m) {
					fmt.Fprintf(os.Stderr, "bad -loads entry %q\n", s)
					os.Exit(2)
				}
				mults = append(mults, m)
			}
		}
		fmt.Println(experiments.OverloadTable(experiments.RunOverload(cfg, mults)))
	})
	var swapRes *experiments.SwapResult
	show("swap", func() {
		r := experiments.RunSwap(cfg)
		swapRes = &r
		fmt.Println(experiments.SwapTable(r))
	})
	var grayRes *experiments.GrayResult
	show("gray", func() {
		r := experiments.RunGray(cfg)
		grayRes = &r
		fmt.Println(experiments.GrayTable(r))
	})
	show("analytics", func() {
		ar := experiments.RunAnalytics(cfg)
		fmt.Println(experiments.AnalyticsBlameTable(ar.Report))
		fmt.Println(experiments.AnalyticsStragglerTable(ar.Report))
		fmt.Println(experiments.AnalyticsBurnTable(ar.Report))
		fmt.Println(experiments.AnalyticsDriftTable(ar.Report))
		// A batched capture makes the drift detector fire: batched stage
		// executions run n^gamma longer than the declared profile.
		bcfg := cfg
		bcfg.MaxBatch = 4
		fmt.Println("-- with dynamic batching (MaxBatch=4), where profiles genuinely drift --")
		fmt.Println(experiments.AnalyticsDriftTable(experiments.RunAnalytics(bcfg).Report))
	})

	// Observability capture: one extra instrumented run of the paper's
	// default system and workload, exported for Perfetto / Prometheus.
	// The tables above stay on the zero-cost uninstrumented path.
	if *traceOut != "" || *metricsOut != "" {
		ocfg := cfg
		ocfg.Obs = obs.NewRecorder()
		r := experiments.RunSystem(&scheduler.FluidFaaS{}, experiments.Medium, ocfg)
		ocfg.Obs.SetGauge("fluidfaas_events_dropped", float64(r.EventsDropped))
		ocfg.Obs.SetGauge("fluidfaas_events_published_total", float64(r.EventsTotal))
		writeExport := func(path string, write func(*os.File) error) {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := write(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *traceOut != "" {
			writeExport(*traceOut, func(f *os.File) error { return obs.WriteChromeTrace(f, ocfg.Obs) })
		}
		if *metricsOut != "" {
			writeExport(*metricsOut, func(f *os.File) error { return obs.WritePrometheus(f, ocfg.Obs) })
		}
	}

	// Machine-readable bench document: end-to-end matrix plus the span
	// analytics of an instrumented fluidfaas/medium capture.
	if *jsonOut != "" {
		if err := os.MkdirAll(*jsonOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ar := experiments.RunAnalytics(cfg)
		uc := experiments.RunUtilComparison(cfg)
		path := filepath.Join(*jsonOut, fmt.Sprintf("BENCH_%s.json", *exp))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := experiments.WriteBenchJSON(f, *exp, e2e, ar.Report, swapRes, grayRes, &uc); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}
