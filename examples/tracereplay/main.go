// Tracereplay: replay an invocation trace CSV (arrival_s,func) through
// the full platform under a chosen policy and print an SLO report. With
// no -trace argument it generates and replays a medium Azure-like trace,
// so the example is runnable out of the box:
//
//	go run ./examples/tracereplay
//	go run ./cmd/fluidfaas-trace -generate medium -out my.csv
//	go run ./examples/tracereplay -trace my.csv -policy esg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/experiments"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace CSV (default: generated medium workload)")
	azure := flag.Bool("azure", false, "trace is in the Azure Functions dataset format (hash,per-minute counts)")
	minutes := flag.Int("minutes", 0, "with -azure: replay only the first N minutes (0 = all)")
	policy := flag.String("policy", "fluidfaas", "policy: fluidfaas|esg|infless")
	flag.Parse()
	if *minutes < 0 {
		fmt.Fprintf(os.Stderr, "invalid -minutes %d: want a count of 0 or more\n", *minutes)
		os.Exit(2)
	}

	pol := experiments.SystemNamed(*policy)
	if pol == nil {
		log.Fatalf("unknown policy %q", *policy)
	}

	cfg := experiments.DefaultConfig()
	cfg.Duration = 180

	var tr *trace.Trace
	if *tracePath == "" {
		tr = experiments.TraceFor(experiments.Medium, cfg)
		fmt.Println("no -trace given; generated a medium Azure-like trace")
	} else {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		if *azure {
			tr, rerr = trace.ReadAzureCSV(f, cfg.Seed, *minutes)
		} else {
			tr, rerr = trace.ReadCSV(f)
		}
		f.Close()
		if rerr != nil {
			log.Fatal(rerr)
		}
	}
	fmt.Printf("trace: %d requests, %.0f s, %.1f req/s mean, %.1f req/s peak\n\n",
		len(tr.Requests), tr.Duration, tr.MeanRate(), tr.PeakRate(10))

	specs := experiments.SpecsFor(experiments.Medium, cfg.SLOScale)
	if tr.NumFuncs > len(specs) {
		log.Fatalf("trace references %d functions, only %d registered", tr.NumFuncs, len(specs))
	}
	cfg.Policy = pol
	cl := cluster.New(cfg.Spec)
	p := platform.New(cl, specs, cfg.Options)
	p.Run(tr, cfg.Drain)

	col := p.Collector()
	fmt.Printf("policy           %s\n", pol.Name())
	fmt.Printf("completed        %d / %d\n", col.Completed(), col.Len())
	fmt.Printf("throughput       %.1f req/s\n", col.Throughput(tr.Duration))
	fmt.Printf("SLO hit rate     %.1f%%\n", col.SLOHitRate()*100)
	byFunc := col.SLOHitRateByFunc()
	for fnID := 0; fnID < len(specs); fnID++ {
		fmt.Printf("  %-30s %.1f%%\n", specs[fnID].Name, byFunc[fnID]*100)
	}
	fmt.Printf("breakdown        %s\n", col.MeanBreakdown())
	fmt.Printf("instances        %d launched, %d evictions, %d migrations\n",
		p.Launched(), p.Evictions(), p.Migrations())
	fmt.Printf("GPU / MIG time   %.0f s / %.0f s\n",
		cl.GPUTime(tr.Duration+cfg.Drain), cl.MIGTime(tr.Duration+cfg.Drain))
}
