// Command bench is the simulator's host-cost benchmark. It drives the
// simulator only through exported APIs and times each layer from
// outside, by wrapping the calls into it. See README.md.
//
// Run from this directory:
//
//	go run . -seed 42                  # every workload, writes out/BENCH.json
//	go run . -workload scale -seed 7 -seconds 20 -trace 0
//	go run . -compare a.json b.json    # per-workload verdicts
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		wname   = flag.String("workload", "", "run only this workload, for -seconds (paper|scale|observed|chaos); empty runs all")
		seed    = flag.Int64("seed", 42, "seed of the generated traces, faults and platform randomness")
		seconds = flag.Int("seconds", 20, "with -workload: the run's time budget on the reference host, which sets how many inputs it replays")
		traced  = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of traced reps instead of the end-to-end metrics")
		compare = flag.Bool("compare", false, "compare two reports given as arguments: go run . -compare a.json b.json")
		outDir  = flag.String("out", "out", "directory for BENCH*.json and trace-<workload>.json")
		child   = flag.String("child", "", "internal: run one rep|traced|probe|headline child and print its JSON")
		rep     = flag.Int("rep", 0, "internal: the child's rep index")
	)
	flag.Parse()
	// One simulation goroutine per child; the second processor absorbs
	// the garbage collector, as it would for a user of the simulator.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var (
		code int
		err  error
	)
	if *child != "" {
		err = childMain(*child, *wname, *seed, *rep)
	} else {
		code, err = run(*wname, *seed, *seconds, *traced, *compare, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

// run dispatches on the flags and returns the exit code.
func run(wname string, seed int64, seconds, traced int, compare bool, outDir string) (int, error) {
	spec, err := loadSpec()
	if err != nil {
		return 0, err
	}
	if compare {
		if flag.NArg() != 2 {
			return 0, fmt.Errorf("-compare takes two report files")
		}
		return compareMain(spec, flag.Arg(0), flag.Arg(1))
	}
	switch {
	case flag.NArg() > 0:
		return 0, fmt.Errorf("unexpected arguments: %v", flag.Args())
	case traced != 0 && traced != 1:
		return 0, fmt.Errorf("-trace must be 0 or 1")
	case wname == "":
		return fullMain(spec, seed, outDir), nil
	case seconds < 1:
		return 0, fmt.Errorf("-seconds must be at least 1")
	}
	w, err := findWorkload(wname)
	if err != nil {
		return 0, err
	}
	return workloadMain(spec, w, seed, seconds, traced == 1, outDir), nil
}

// hostInfo records the machine a full run measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
}

func readHost() *hostInfo {
	h := &hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: min(2, runtime.NumCPU()),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
