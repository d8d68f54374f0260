// Command fluidfaas-trace generates Azure-like workload traces as CSV
// and prints statistics of existing trace files.
package main

import (
	"flag"
	"fmt"
	"os"

	"fluidfaas/internal/experiments"
	"fluidfaas/internal/trace"
)

func main() {
	gen := flag.String("generate", "", "generate a trace for a workload level: light|medium|heavy")
	out := flag.String("out", "", "output CSV path (default stdout)")
	inspect := flag.String("inspect", "", "print statistics of a trace CSV")
	duration := flag.Float64("duration", 300, "trace duration (s)")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()
	if err := experiments.CheckDuration(*duration); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch {
	case *gen != "":
		w, ok := experiments.ParseWorkload(*gen)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *gen)
			os.Exit(2)
		}
		cfg := experiments.DefaultConfig()
		cfg.Seed = *seed
		cfg.Duration = *duration
		tr := experiments.TraceFor(w, cfg)
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			dst = f
		}
		err := tr.WriteCSV(dst)
		if *out != "" {
			// Close reports the write errors some file systems defer to it.
			if cerr := dst.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%d requests over %.0f s (mean %.1f req/s, peak %.1f req/s)\n",
			len(tr.Requests), tr.Duration, tr.MeanRate(), tr.PeakRate(10))

	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("requests   %d\n", len(tr.Requests))
		fmt.Printf("duration   %.1f s\n", tr.Duration)
		fmt.Printf("functions  %d\n", tr.NumFuncs)
		fmt.Printf("mean rate  %.2f req/s\n", tr.MeanRate())
		fmt.Printf("peak rate  %.2f req/s (10 s buckets)\n", tr.PeakRate(10))
		for fn, n := range tr.CountByFunc() {
			if n > 0 {
				fmt.Printf("  func %d   %d requests\n", fn, n)
			}
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}
