package experiments

import (
	"fmt"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// MotivationResult reproduces Fig. 3: ESG's resource demand vs the
// ideal requirement, and the per-slice-type MIG usage at the moment of
// peak over-demand.
type MotivationResult struct {
	// Times and the two series of Fig. 3a (fractions of cluster GPCs).
	Times    []float64
	Occupied []float64
	Required []float64
	// PeakOverdemand is max (occupied-required)/required — the paper
	// reports 167% at the 83rd second.
	PeakOverdemand float64
	PeakTime       float64
	// SliceUsageAtPeak maps profile name to active/total counts at the
	// peak (Fig. 3b: only the 4g slices are busy in medium workload).
	SliceUsageAtPeak map[string][2]int
}

// RunMotivation runs ESG on the medium workload and measures the gap
// between allocated and ideally required GPU resources (§4).
func RunMotivation(cfg Config) MotivationResult {
	cfg = cfg.withDefaults()
	w := Medium
	specs := SpecsFor(w, cfg.SLOScale)
	tr := TraceFor(w, cfg)

	// Per-second per-slice-type activity snapshots.
	type snap struct {
		now     float64
		byType  map[mig.SliceType][2]int
		occGPCs int
	}
	var snaps []snap
	cfg.Policy = &scheduler.ESG{}
	cfg.CPUMemGB = 1440
	cfg.OnSample = func(now float64, cl *cluster.Cluster) {
		s := snap{now: now, byType: map[mig.SliceType][2]int{}}
		for _, g := range cl.AllGPUs() {
			for _, sl := range g.Slices {
				c := s.byType[sl.Type]
				c[1]++
				if sl.Active() {
					c[0]++
				}
				s.byType[sl.Type] = c
			}
			s.occGPCs += g.OccupiedGPCs()
		}
		snaps = append(snaps, s)
	}
	cl, _ := cfg.run(specs, tr)

	// Ideal requirement: per-bucket arrival rate times the most
	// GPC-efficient per-request cost of each application.
	apps := appsFor(w)
	ideal := make([]float64, len(apps))
	for i, a := range apps {
		d := a.BuildDAG(w.Variant())
		best := 0.0
		for _, t := range mig.SliceTypes {
			plan, err := pipeline.Monolithic(d, t)
			if err != nil {
				continue
			}
			cost := float64(t.GPCs()) * plan.Latency
			if best == 0 || cost < best {
				best = cost
			}
		}
		ideal[i] = best
	}
	perApp := make([][]float64, len(apps))
	bucket := 1.0
	for i := range apps {
		sub := tr
		rates := make([]float64, int(cfg.Duration/bucket)+1)
		for _, r := range sub.Requests {
			if r.Func == i {
				idx := int(r.Arrival / bucket)
				if idx < len(rates) {
					rates[idx]++
				}
			}
		}
		perApp[i] = rates
	}

	total := float64(cl.TotalGPCs())
	res := MotivationResult{SliceUsageAtPeak: map[string][2]int{}}
	for _, s := range snaps {
		idx := int(s.now / bucket)
		req := 0.0
		for i := range apps {
			if idx < len(perApp[i]) {
				req += perApp[i][idx] * ideal[i]
			}
		}
		reqFrac := req / total
		occFrac := float64(s.occGPCs) / total
		res.Times = append(res.Times, s.now)
		res.Occupied = append(res.Occupied, occFrac)
		res.Required = append(res.Required, reqFrac)
		if reqFrac > 0.05 {
			over := (occFrac - reqFrac) / reqFrac
			if over > res.PeakOverdemand {
				res.PeakOverdemand = over
				res.PeakTime = s.now
				res.SliceUsageAtPeak = map[string][2]int{}
				for t, c := range s.byType {
					res.SliceUsageAtPeak[t.String()] = c
				}
			}
		}
	}
	return res
}

// Fig3Table renders the motivation result in the paper's terms.
func Fig3Table(r MotivationResult) Table {
	t := Table{
		Title:  "Fig. 3: ESG resource demand vs required (medium workload)",
		Header: []string{"quantity", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"peak over-demand", pct(r.PeakOverdemand)},
		[]string{"at second", f1(r.PeakTime)},
	)
	for _, name := range []string{"4g.40gb", "2g.20gb", "1g.10gb"} {
		c := r.SliceUsageAtPeak[name]
		t.Rows = append(t.Rows, []string{
			"active " + name, fmt.Sprintf("%d/%d", c[0], c[1]),
		})
	}
	return t
}

// FragmentationCase is one row of the Fig. 4 walk-through.
type FragmentationCase struct {
	Scenario   string
	FreeSlices string
	Monolithic string
	Pipeline   string
}

// RunFragmentation reproduces the Fig. 4 story: a function that needs
// 4g-class resources cannot be placed monolithically on fragmented
// GPUs, while FluidFaaS builds a pipeline from the fragments ((c) a
// 3g+1g-class combination, (d) two 2g slices).
func RunFragmentation() []FragmentationCase {
	// GPU 1: default partition with the 4g and 1g occupied (instances A
	// and B of Fig. 1/4), leaving its 2g free.
	// GPU 2: P2 partition with the 3g occupied (instance C), leaving two
	// 2g slices free.
	gpu1 := mig.NewGPU(0, 1, mig.DefaultConfig)
	gpu1.Slices[0].Allocate("instance-A", 0) // 4g
	gpu1.Slices[2].Allocate("instance-B", 0) // 1g
	gpu2 := mig.NewGPU(0, 2, mig.ConfigP2)
	gpu2.Slices[0].Allocate("instance-C", 0) // the 3g

	free := append(gpu1.FreeSlices(), gpu2.FreeSlices()...)
	var freeTypes []mig.SliceType
	freeStr := ""
	for i, sl := range free {
		if i > 0 {
			freeStr += " "
		}
		freeStr += sl.ID()
		freeTypes = append(freeTypes, sl.Type)
	}

	// Instance D: the large image-classification variant (baseline
	// needs >= 3g.40gb; no free slice that big exists).
	a := dnn.Get(dnn.ImageClassification)
	d := a.BuildDAG(dnn.Large)
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		panic(err)
	}
	slo, _ := a.SLOLatency(dnn.Large, 1.5)

	var cases []FragmentationCase
	monoOK := "no free slice fits"
	for _, t := range freeTypes {
		if _, err := pipeline.Monolithic(d, t); err == nil {
			monoOK = "fits " + t.String()
			break
		}
	}
	freeGPCs := 0
	for _, t := range freeTypes {
		freeGPCs += t.GPCs()
	}
	cases = append(cases, FragmentationCase{
		Scenario:   fmt.Sprintf("(a/b) instance D needs >=3g class; %d GPCs free in fragments", freeGPCs),
		FreeSlices: freeStr,
		Monolithic: monoOK,
		Pipeline:   "",
	})

	plan, _, errC := pipeline.Construct(d, parts, freeTypes, slo)
	pipeStr := "infeasible"
	if errC == nil {
		pipeStr = plan.String()
	}
	cases = append(cases, FragmentationCase{
		Scenario:   "(c/d) FluidFaaS pipeline over the fragments",
		FreeSlices: freeStr,
		Monolithic: "n/a",
		Pipeline:   pipeStr,
	})
	return cases
}

// Fig4Table renders the fragmentation walk-through.
func Fig4Table(cases []FragmentationCase) Table {
	t := Table{
		Title:  "Fig. 4: GPU resource fragmentation",
		Header: []string{"scenario", "free slices", "monolithic", "pipeline"},
	}
	for _, c := range cases {
		t.Rows = append(t.Rows, []string{c.Scenario, c.FreeSlices, c.Monolithic, c.Pipeline})
	}
	return t
}

// KeepAliveResult reproduces Fig. 5: occupied vs actively used MIG
// percentage per GPU under the exclusive keep-alive policy.
type KeepAliveResult struct {
	// Per-GPU occupied and active GPC-time fractions.
	OccupiedPct []float64
	ActivePct   []float64
	// AvgActive is the mean active percentage (paper: 16.1%).
	AvgActive float64
	// FracBelow35 is the fraction of time cluster activity stayed under
	// 35% of the occupied capacity (paper: ~90%).
	FracBelow35 float64
}

// RunKeepAlive runs ESG on a sparse trace: instances sit warm in their
// slices (exclusive keep-alive) while actual processing is rare.
func RunKeepAlive(cfg Config) KeepAliveResult {
	cfg = cfg.withDefaults()
	if cfg.Duration < 600 {
		cfg.Duration = 600
	}
	specs := SpecsFor(Light, cfg.SLOScale)
	var activeVsOccupied metrics.Timeline
	cfg.Policy = &scheduler.ESG{}
	cfg.Nodes, cfg.CPUMemGB = 1, 1440
	cfg.OnSample = func(now float64, cl *cluster.Cluster) {
		occ := cl.OccupiedGPCs()
		if occ == 0 {
			return
		}
		activeVsOccupied.Add(now, float64(cl.ActiveGPCs())/float64(occ))
	}
	// Sparse but regular traffic: enough to keep instances alive, far
	// below their capacity.
	cl, _ := cfg.run(specs, sparseTrace(len(specs), cfg))

	end := cfg.Duration + cfg.Drain
	res := KeepAliveResult{}
	sumActive := 0.0
	n := 0
	for _, g := range cl.AllGPUs() {
		occT, actT := 0.0, 0.0
		gpcs := 0.0
		for _, sl := range g.Slices {
			w := float64(sl.Type.GPCs())
			occT += sl.OccupiedTime(end) * w
			actT += sl.ActiveTime(end) * w
			gpcs += w
		}
		occPct := occT / (end * gpcs)
		actPct := actT / (end * gpcs)
		res.OccupiedPct = append(res.OccupiedPct, occPct)
		res.ActivePct = append(res.ActivePct, actPct)
		if occPct > 0 {
			sumActive += actPct / occPct
			n++
		}
	}
	if n > 0 {
		res.AvgActive = sumActive / float64(n)
	}
	res.FracBelow35 = activeVsOccupied.FractionBelow(0.35)
	return res
}

// sparseTrace generates the Fig. 5 traffic: bursty activity around 0.5
// req/s per function — instances stay warm but process rarely.
func sparseTrace(nFuncs int, cfg Config) *trace.Trace {
	var streams []trace.StreamSpec
	for i := 0; i < nFuncs; i++ {
		streams = append(streams, trace.StreamSpec{
			Func:          i,
			MeanRPS:       1.2,
			RateSigma:     0.5,
			BurstFactor:   4,
			BurstFraction: 0.08,
			BurstLen:      20,
		})
	}
	return trace.Generate(trace.Spec{
		Duration: cfg.Duration,
		Seed:     cfg.Seed + 555,
		Streams:  streams,
	})
}

// Fig5Table renders the keep-alive result.
func Fig5Table(r KeepAliveResult) Table {
	t := Table{
		Title:  "Fig. 5: occupied vs actively used GPU percentage (ESG, sparse trace)",
		Header: []string{"gpu", "occupied", "active"},
	}
	for i := range r.OccupiedPct {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("gpu%d", i), pct(r.OccupiedPct[i]), pct(r.ActivePct[i]),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"avg active share of occupied", pct(r.AvgActive), ""},
		[]string{"time below 35% activity", pct(r.FracBelow35), ""},
	)
	return t
}
