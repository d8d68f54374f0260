// Command fluidfaas-dag inspects FluidFaaS functions: it prints an
// application's FFS DAG (optionally as Graphviz dot), its CV-ranked
// pipeline partitions, and the deployment the invoker would construct
// for a given set of free slices.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fluidfaas/internal/dnn"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
)

func main() {
	appName := flag.String("app", "image-classification", "application: image-classification|depth-recognition|background-elimination|expanded-image-classification")
	variantName := flag.String("variant", "medium", "variant: small|medium|large")
	dot := flag.Bool("dot", false, "emit Graphviz dot instead of text")
	freeStr := flag.String("free", "", "comma-separated free slices to construct against, e.g. 2g.20gb,1g.10gb")
	topN := flag.Int("top", 5, "how many ranked partitions to print")
	flag.Parse()
	if *topN < 0 {
		fmt.Fprintf(os.Stderr, "invalid -top %d: want a count of 0 or more\n", *topN)
		os.Exit(2)
	}

	var app dnn.App
	found := false
	for _, a := range dnn.Apps() {
		if a.Name == *appName {
			app = a
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	variant, err := dnn.ParseVariant(*variantName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if app.Excluded(variant) {
		fmt.Fprintf(os.Stderr, "%s/%s is excluded from the study (Table 5 NULL)\n", app.Name, variant)
		os.Exit(2)
	}

	d := app.BuildDAG(variant)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *dot {
		fmt.Print(d.DOT(app.Name, parts[0].Stages))
		return
	}

	fmt.Printf("%s / %s\n", app.Name, variant)
	fmt.Printf("components: %d, total memory %.1f GB\n", d.Len(), d.TotalMemGB())
	bs, bok := app.MinSliceBaseline(variant)
	fs, fok := app.MinSliceFluid(variant)
	fmt.Printf("min slice: baseline %s, fluidfaas %s\n\n", renderSlice(bs, bok), renderSlice(fs, fok))

	fmt.Printf("top %d CV-ranked partitions:\n", *topN)
	for i, p := range parts {
		if i >= *topN {
			break
		}
		var stageStr []string
		for _, st := range p.Stages {
			var names []string
			for _, n := range st.Nodes {
				names = append(names, d.Node(n).Name)
			}
			stageStr = append(stageStr, "["+strings.Join(names, "+")+"]")
		}
		fmt.Printf("  %2d. CV %.3f  %s\n", i+1, p.CV, strings.Join(stageStr, " -> "))
	}

	if *freeStr != "" {
		var free []mig.SliceType
		for _, s := range strings.Split(*freeStr, ",") {
			t, err := mig.ParseSliceType(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			free = append(free, t)
		}
		slo, _ := app.SLOLatency(variant, 1.5)
		plan, idx, err := pipeline.Construct(d, parts, free, slo)
		if err != nil {
			fmt.Printf("\nconstruction against %v: %v\n", free, err)
			return
		}
		fmt.Printf("\nconstruction against %v:\n  plan %v (slices %v)\n", free, plan, idx)
		fmt.Printf("  latency %.0f ms (SLO %.0f ms), throughput %.2f req/s\n",
			plan.Latency*1000, slo*1000, plan.Throughput())
	}
}

func renderSlice(t mig.SliceType, ok bool) string {
	if !ok {
		return "NULL"
	}
	return ">=" + t.String()
}
