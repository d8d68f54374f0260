package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// verdict judges metric m of side b against side a, each summarised
// over its runs: "unresolved" when either side's q1-q3 spread exceeds
// the bound, "worse" when b's median is worse than a's by more than the
// bound, "ok" otherwise.
func verdict(m metricSpec, a, b metricStat) string {
	if a.spread() > m.Bound || b.spread() > m.Bound || a.Median == 0 {
		return "unresolved"
	}
	r := b.Median / a.Median
	if (m.Better == "lower" && r > 1+m.Bound) || (m.Better == "higher" && r < 1-m.Bound) {
		return "worse"
	}
	return "ok"
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// loadSide loads one side of a comparison: for each workload and
// end-to-end metric, the stats over the given reports of each report's
// value (its mean over reps). Their spread is the spread between runs
// that the benchmark's bounds are set on; one report has none.
func loadSide(paths []string) (map[string]map[string]metricStat, error) {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			return nil, err
		}
		for name, w := range r.Workloads {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, st := range w.EndToEnd {
				values[name][m] = append(values[name][m], st.Mean)
				units[m] = st.Unit
			}
		}
	}
	out := map[string]map[string]metricStat{}
	for name, ms := range values {
		out[name] = map[string]metricStat{}
		for m, vs := range ms {
			out[name][m] = newStat(units[m], vs)
		}
	}
	return out, nil
}

// compareMain prints, for each workload on both sides and each
// end-to-end metric, the two sides' median run values, their ratio and
// the verdict. It
// returns 1 when any verdict is "worse".
func compareMain(spec benchSpec, argA, argB string) (int, error) {
	a, err := loadSide(strings.Split(argA, ","))
	if err != nil {
		return 0, err
	}
	b, err := loadSide(strings.Split(argB, ","))
	if err != nil {
		return 0, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-9s %-15s %-6s %3s %12s %7s %3s %12s %7s %8s %5s  %s\n",
		"workload", "metric", "unit", "n", "a", "spread", "n", "b", "spread", "b/a", "bound", "verdict")
	code := 0
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			sa, sb := a[name][m.Name], b[name][m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-9s %-15s %-6s %3d %12.6g %7.4f %3d %12.6g %7.4f %8.4f %5.2f  %s\n",
				name, m.Name, m.Unit, sa.N, sa.Median, sa.spread(), sb.N, sb.Median, sb.spread(),
				ratio(sb.Median, sa.Median), m.Bound, v)
		}
	}
	return code, nil
}
