package experiments

import (
	"fmt"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/scheduler"
)

// PartitionScheme names one of the Table 7 partitioning schemes.
type PartitionScheme struct {
	Name       string
	GPUConfigs []mig.Config
}

// Table7Schemes returns the paper's partition schemes.
func Table7Schemes() []PartitionScheme {
	return []PartitionScheme{
		{Name: "Hybrid", GPUConfigs: mig.HybridNode()},
		{Name: "P1", GPUConfigs: mig.UniformNode(mig.ConfigP1, 8)},
		{Name: "P2", GPUConfigs: mig.UniformNode(mig.ConfigP2, 8)},
	}
}

// SchemeNamed returns the Table 7 scheme called name.
func SchemeNamed(name string) (PartitionScheme, bool) {
	for _, s := range Table7Schemes() {
		if s.Name == name {
			return s, true
		}
	}
	return PartitionScheme{}, false
}

// PartitionResult is one row of Fig. 15.
type PartitionResult struct {
	Scheme        string
	ESGThroughput float64
	FFThroughput  float64
	Gain          float64
	ESGSLOHit     float64
	FFSLOHit      float64
}

// RunPartitions reproduces Fig. 15: heavy-workload throughput of
// FluidFaaS vs ESG across the Table 7 partitioning schemes. The paper
// measures +70% (Hybrid), +75% (P1), +78% (P2), driven by the small
// fragments ESG cannot use.
func RunPartitions(cfg Config) []PartitionResult {
	cfg = cfg.withDefaults()
	var out []PartitionResult
	for _, scheme := range Table7Schemes() {
		c := cfg
		c.GPUConfigs = scheme.GPUConfigs
		esg := RunSystem(&scheduler.ESG{}, Heavy, c)
		ff := RunSystem(&scheduler.FluidFaaS{}, Heavy, c)
		r := PartitionResult{
			Scheme:        scheme.Name,
			ESGThroughput: esg.Throughput,
			FFThroughput:  ff.Throughput,
			ESGSLOHit:     esg.SLOHit,
			FFSLOHit:      ff.SLOHit,
		}
		if esg.Throughput > 0 {
			r.Gain = ff.Throughput / esg.Throughput
		}
		out = append(out, r)
	}
	return out
}

// Fig15Table renders the partition study.
func Fig15Table(rs []PartitionResult) Table {
	t := Table{
		Title:  "Fig. 15: throughput under different MIG partitions (heavy workload)",
		Header: []string{"partition", "esg (req/s)", "fluidfaas (req/s)", "gain", "esg SLO", "fluid SLO"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Scheme, f1(r.ESGThroughput), f1(r.FFThroughput),
			fmt.Sprintf("%.2fx", r.Gain), pct(r.ESGSLOHit), pct(r.FFSLOHit),
		})
	}
	return t
}
