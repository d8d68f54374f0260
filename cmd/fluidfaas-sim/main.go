// Command fluidfaas-sim runs a single platform simulation with a chosen
// policy, workload level and MIG partition scheme, and dumps the
// resulting metrics.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"fluidfaas/internal/experiments"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/platform"
)

func main() {
	policy := flag.String("policy", "fluidfaas", "policy: fluidfaas|esg|infless")
	workload := flag.String("workload", "medium", "workload: light|medium|heavy")
	duration := flag.Float64("duration", 300, "trace duration (s)")
	seed := flag.Int64("seed", 42, "random seed")
	partition := flag.String("partition", "P1", "partition scheme: P1|P2|Hybrid")
	events := flag.Int("events", 0, "print the last N platform lifecycle events (0 with -events-kind prints all matching)")
	eventsKind := flag.String("events-kind", "", "only print lifecycle events of these kinds (comma-separated, e.g. fault,retry); collected losslessly from the platform's event stream")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto / chrome://tracing)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text-exposition metrics to this file")
	serve := flag.String("serve", "", "after the run, serve introspection of it on this address (e.g. 127.0.0.1:8080): /metrics, /analytics, /state, /decisions, /why, /debug/pprof; blocks until killed")
	decisionsOut := flag.String("decisions-out", "", "record decision provenance and write the full export (records, counts, anomaly dumps) to this JSON file")
	utilOut := flag.String("util-out", "", "record the GPU utilization ledger and write its report (per-slice state timelines, waste roll-ups, fragmentation analytics) to this JSON file")
	engineStats := flag.Bool("engine-stats", false, "print the sim engine's self-telemetry (events, rate, heap depth) after the run")
	flag.Parse()
	if err := experiments.CheckDuration(*duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *events < 0 {
		fmt.Fprintf(os.Stderr, "invalid -events %d: want a count of 0 or more\n", *events)
		os.Exit(2)
	}

	pol := experiments.SystemNamed(*policy)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}
	w, ok := experiments.ParseWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	scheme, ok := experiments.SchemeNamed(*partition)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown partition %q\n", *partition)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Duration = *duration
	cfg.GPUConfigs = scheme.GPUConfigs

	// Observability: a recorder only when an export or the introspection
	// server is requested (the nil default keeps the run on the
	// zero-cost path).
	if *traceOut != "" || *metricsOut != "" || *serve != "" {
		cfg.Obs = obs.NewRecorder()
	}
	// Decision provenance: recorded when an export file or the server is
	// requested; otherwise the nil recorder keeps the run bit-identical
	// to an uninstrumented one.
	if *decisionsOut != "" || *serve != "" {
		cfg.Decisions = decisions.NewRecorder(0)
	}
	// Utilization ledger: attached when its export or the server is
	// requested; the nil default keeps the run bit-identical.
	if *utilOut != "" || *serve != "" {
		cfg.Util = util.NewLedger()
	}
	var snap platform.Snapshot
	if *serve != "" {
		cfg.OnPlatform = func(p *platform.Platform) { snap = p.Snapshot() }
	}
	// The event listing is a platform event subscriber that keeps the
	// matching events (all of them without -events-kind); -events N
	// prints the last N.
	var evs []platform.Event
	if *events > 0 || *eventsKind != "" {
		var want map[platform.EventKind]bool
		if *eventsKind != "" {
			want = map[platform.EventKind]bool{}
			for _, name := range strings.Split(*eventsKind, ",") {
				k, err := platform.ParseEventKind(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				want[k] = true
			}
		}
		cfg.OnEvent = func(e platform.Event) {
			if want != nil && !want[e.Kind] {
				return
			}
			evs = append(evs, e)
		}
	}

	r := experiments.RunSystem(pol, w, cfg)
	fmt.Printf("system         %s\n", r.System)
	fmt.Printf("workload       %s (%s variants)\n", w, w.Variant())
	fmt.Printf("partition      %s\n", *partition)
	fmt.Printf("requests       %d (completed %d)\n", r.Total, r.Completed)
	fmt.Printf("throughput     %.1f req/s\n", r.Throughput)
	fmt.Printf("SLO hit rate   %.1f%%\n", r.SLOHit*100)
	for f := 0; f < len(r.SLOHitByApp); f++ {
		fmt.Printf("  app %d        %.1f%%\n", f, r.SLOHitByApp[f]*100)
	}
	fmt.Printf("latency p50    %.3f s\n", r.LatencyP50)
	fmt.Printf("latency p95    %.3f s\n", r.LatencyP95)
	fmt.Printf("latency p99    %.3f s\n", r.LatencyP99)
	fmt.Printf("breakdown      %s\n", r.Breakdown)
	fmt.Printf("GPU time       %.1f s\n", r.GPUTime)
	fmt.Printf("MIG time       %.1f s\n", r.MIGTime)
	fmt.Printf("mean util      %.1f%% of GPCs\n", r.UtilGPCs.Mean()*100)
	fmt.Printf("instances      %d launched, %d evictions, %d migrations\n",
		r.Launched, r.Evictions, r.Migrations)
	if *engineStats {
		fmt.Printf("engine         %d events (%d scheduled, %d cancelled), peak heap %d, %.0f events/s\n",
			r.Engine.Executed, r.Engine.Scheduled, r.Engine.Cancellations,
			r.Engine.PeakHeapDepth, r.Engine.EventsPerSec)
	}
	if *events > 0 || *eventsKind != "" {
		label := "recent lifecycle events"
		if *eventsKind != "" {
			label = fmt.Sprintf("lifecycle events (%s)", *eventsKind)
		}
		if *events > 0 && len(evs) > *events {
			evs = evs[len(evs)-*events:]
		}
		fmt.Printf("\n%s:\n", label)
		for _, e := range evs {
			fmt.Println(" ", e)
		}
	}

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
	report, utilRep, err := experiments.FinishObservers(cfg, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceOut != "" {
		writeExport(*traceOut, func(f *os.File) error { return obs.WriteChromeTrace(f, cfg.Obs) })
	}
	if *metricsOut != "" {
		writeExport(*metricsOut, func(f *os.File) error { return obs.WritePrometheus(f, cfg.Obs) })
	}
	if *utilOut != "" {
		writeExport(*utilOut, func(f *os.File) error { return utilRep.WriteJSON(f) })
	}
	if *decisionsOut != "" {
		writeExport(*decisionsOut, func(f *os.File) error { return cfg.Decisions.WriteJSON(f) })
	}

	// Introspection after the run: analyse the finished run and serve
	// it. The recorders take no lock and are no longer written to, so
	// the server's concurrent requests only read them; the
	// listener comes up before the address is announced so scripts can
	// curl as soon as they see the line.
	if *serve != "" {
		h := analytics.Handler(analytics.ServerOptions{
			Recorder:  cfg.Obs,
			Report:    report,
			State:     snap,
			Decisions: cfg.Decisions,
			Util:      utilRep,
		})
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving introspection on http://%s\n", ln.Addr())
		if err := http.Serve(ln, h); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
