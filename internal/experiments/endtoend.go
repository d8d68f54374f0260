package experiments

import (
	"fmt"
	"sync"
)

// EndToEnd runs every (system, workload) combination once and caches
// nothing — callers reuse the returned map across figures 9–16 and
// Table 6.
type EndToEnd struct {
	Cfg     Config
	Results map[Workload]map[string]SystemResult
}

// RunEndToEnd executes the full end-to-end matrix (§7.1). The nine
// (system, workload) simulations are independent deterministic runs, so
// they execute in parallel; results are identical to a serial sweep.
// Observers are written on one run's engine goroutine only, so cfg must
// set none of Obs, Decisions, Util, OnEvent and OnPlatform: the nine
// runs would share it. RunEndToEnd panics naming the first one set.
func RunEndToEnd(cfg Config) *EndToEnd {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Obs", cfg.Obs != nil},
		{"Decisions", cfg.Decisions != nil},
		{"Util", cfg.Util != nil},
		{"OnEvent", cfg.OnEvent != nil},
		{"OnPlatform", cfg.OnPlatform != nil},
	} {
		if f.set {
			panic("experiments: RunEndToEnd would share " + f.name + " across its parallel runs")
		}
	}
	cfg = cfg.withDefaults()
	e := &EndToEnd{Cfg: cfg, Results: map[Workload]map[string]SystemResult{}}
	// Every inner map exists before any goroutine starts: the workers
	// read the outer map, so writing it mid-sweep would race.
	for _, w := range Workloads {
		e.Results[w] = map[string]SystemResult{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, w := range Workloads {
		for _, pol := range Systems() {
			w, pol := w, pol
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := RunSystem(pol, w, cfg)
				mu.Lock()
				e.Results[w][pol.Name()] = r
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return e
}

func systemsOrder() []string { return []string{"infless", "esg", "fluidfaas"} }

// Fig9SLOHitRates returns the per-application SLO hit rates of Fig. 9.
func (e *EndToEnd) Fig9SLOHitRates() Table {
	t := Table{
		Title:  "Fig. 9: SLO hit rate per application and workload",
		Header: []string{"workload", "app", "infless", "esg", "fluidfaas"},
	}
	for _, w := range Workloads {
		apps := appsFor(w)
		for ai, a := range apps {
			row := []string{w.String(), a.Name}
			for _, sys := range systemsOrder() {
				row = append(row, pct(e.Results[w][sys].SLOHitByApp[ai]))
			}
			t.Rows = append(t.Rows, row)
		}
		row := []string{w.String(), "ALL"}
		for _, sys := range systemsOrder() {
			row = append(row, pct(e.Results[w][sys].SLOHit))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig10Throughput returns the system throughput of Fig. 10, plus the
// FluidFaaS-over-ESG gain the paper headlines (25% medium, 75% heavy).
func (e *EndToEnd) Fig10Throughput() Table {
	t := Table{
		Title:  "Fig. 10: system throughput (req/s)",
		Header: []string{"workload", "infless", "esg", "fluidfaas", "fluid/esg"},
	}
	for _, w := range Workloads {
		row := []string{w.String()}
		for _, sys := range systemsOrder() {
			row = append(row, f1(e.Results[w][sys].Throughput))
		}
		gain := e.Results[w]["fluidfaas"].Throughput / e.Results[w]["esg"].Throughput
		row = append(row, fmt.Sprintf("%.2fx", gain))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FigCDF returns the latency CDF tables of Figs. 11 (heavy), 12
// (medium) and 13 (light).
func (e *EndToEnd) FigCDF(w Workload) Table {
	figNo := map[Workload]string{Heavy: "11", Medium: "12", Light: "13"}[w]
	t := Table{
		Title:  fmt.Sprintf("Fig. %s: end-to-end latency CDF (%s workload)", figNo, w),
		Header: []string{"app", "system", "p50(s)", "p90(s)", "p95(s)", "max(s)"},
	}
	apps := appsFor(w)
	for ai, a := range apps {
		for _, sys := range systemsOrder() {
			cdf := e.Results[w][sys].CDFByApp[ai]
			row := []string{a.Name, sys}
			for _, q := range []float64{0.50, 0.90, 0.95, 1.0} {
				v := 0.0
				for _, pt := range cdf {
					if pt.Fraction >= q {
						v = pt.Latency
						break
					}
				}
				if v == 0 && len(cdf) > 0 {
					v = cdf[len(cdf)-1].Latency
				}
				row = append(row, f2(v))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig14Breakdown returns the latency breakdown of Fig. 14 (ESG left
// bar, FluidFaaS right bar; queue / load / exec / transfer in ms).
func (e *EndToEnd) Fig14Breakdown() Table {
	t := Table{
		Title:  "Fig. 14: end-to-end latency breakdown (ms)",
		Header: []string{"workload", "system", "queue", "load", "exec", "transfer"},
	}
	for _, w := range Workloads {
		for _, sys := range []string{"esg", "fluidfaas"} {
			b := e.Results[w][sys].Breakdown
			t.Rows = append(t.Rows, []string{
				w.String(), sys,
				f1(b.Queue * 1000), f1(b.Load * 1000),
				f1(b.Exec * 1000), f1(b.Transfer * 1000),
			})
		}
	}
	return t
}

// Table6ResourceCost returns the normalised MIG and GPU time of
// Table 6 (FluidFaaS = 1; lower is better).
func (e *EndToEnd) Table6ResourceCost() Table {
	t := Table{
		Title:  "Table 6: resource cost normalised to FluidFaaS",
		Header: []string{"metric", "workload", "infless", "esg", "fluidfaas"},
	}
	for _, metric := range []string{"MIG time", "GPU time"} {
		for _, w := range Workloads {
			get := func(sys string) float64 {
				r := e.Results[w][sys]
				if metric == "MIG time" {
					return r.MIGTime
				}
				return r.GPUTime
			}
			base := get("fluidfaas")
			row := []string{metric, w.String()}
			for _, sys := range systemsOrder() {
				if base > 0 {
					row = append(row, f2(get(sys)/base))
				} else {
					row = append(row, "n/a")
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Fig16Utilization returns the GPU utilisation summary of Fig. 16:
// mean and peak active-GPC fraction per system and workload.
func (e *EndToEnd) Fig16Utilization() Table {
	t := Table{
		Title:  "Fig. 16: GPU utilisation (active GPC fraction)",
		Header: []string{"workload", "system", "mean", "peak"},
	}
	for _, w := range Workloads {
		for _, sys := range systemsOrder() {
			tl := e.Results[w][sys].UtilGPCs
			t.Rows = append(t.Rows, []string{
				w.String(), sys, pct(tl.Mean()), pct(tl.Max()),
			})
		}
	}
	return t
}
