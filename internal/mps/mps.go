// Package mps models NVIDIA Multi-Process Service sharing — the weak-
// isolation alternative the paper contrasts MIG against (§1, §2.2,
// Table 1). Under MPS, processes share one GPU context: placement is
// fully flexible (no fragmentation), but co-located processes interfere
// (no performance isolation) and share fault/security domains (no strong
// isolation).
//
// The model captures the three properties that matter for the
// comparison:
//
//   - Flexibility: any process fits any GPU with free memory; compute
//     is oversubscribable.
//   - Interference: a process that wants w GPCs on a GPU whose
//     co-runners want W more runs at slowdown
//     max(1, (w+W)/7) · (1 + Beta·W/7) — proportional sharing when
//     oversubscribed plus a cache/bandwidth contention term even when
//     not (the effect INFless/Protean build slowdown models for).
//   - Exposure: seconds of pairwise co-residency between different
//     functions, the quantity strong isolation drives to zero.
package mps

import "fluidfaas/internal/sim"

// Beta is the contention coefficient: co-runners claiming the whole
// remaining GPU add Beta to the slowdown even without compute
// oversubscription.
const Beta = 0.25

// GPUGPCs is the compute capacity of one GPU in GPC equivalents.
const GPUGPCs = 7.0

// GPUMemGB is the memory capacity of one GPU.
const GPUMemGB = 80.0

// FunctionProfile describes one function to the MPS runtime.
type FunctionProfile struct {
	Name string
	// Exec is the service time when the process receives its wanted
	// compute uncontended.
	Exec float64
	// WantGPCs is the compute the function can usefully consume.
	WantGPCs float64
	// MemGB is the resident footprint of one process.
	MemGB float64
	// SLO is the latency budget.
	SLO float64
}

// process is one resident function process on a GPU.
type process struct {
	fn    int
	gpu   *gpu
	busy  bool
	queue []*request

	createdAt float64
}

type request struct {
	fn      int
	arrival float64
}

type gpu struct {
	id    int
	procs []*process
	memGB float64

	// exposure accounting: pairwise co-residency of distinct functions.
	lastT    float64
	exposure float64
}

// coResidentPairs counts distinct-function pairs currently resident.
func (g *gpu) coResidentPairs() int {
	funcs := map[int]int{}
	for _, p := range g.procs {
		funcs[p.fn]++
	}
	distinct := len(funcs)
	return distinct * (distinct - 1) / 2
}

func (g *gpu) accrueExposure(now float64) {
	g.exposure += float64(g.coResidentPairs()) * (now - g.lastT)
	g.lastT = now
}

// wantSum returns the aggregate GPC demand of busy co-runners other
// than p.
func (g *gpu) wantSum(exclude *process, profiles []FunctionProfile) float64 {
	w := 0.0
	for _, p := range g.procs {
		if p != exclude && p.busy {
			w += profiles[p.fn].WantGPCs
		}
	}
	return w
}

// Slowdown returns the interference multiplier for a process wanting w
// GPCs while busy co-runners want others.
func Slowdown(w, others float64) float64 {
	total := w + others
	s := 1.0
	if total > GPUGPCs {
		s = total / GPUGPCs
	}
	return s * (1 + Beta*minf(others, GPUGPCs)/GPUGPCs)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Result summarises an MPS run.
type Result struct {
	Completed  int
	Total      int
	Throughput float64
	SLOHit     float64
	// MeanSlowdown is the average interference multiplier experienced.
	MeanSlowdown float64
	// ExposureSeconds sums pairwise cross-function co-residency over
	// all GPUs — zero under MIG's strong isolation.
	ExposureSeconds float64
	// Processes spawned.
	Processes int
}

// Cluster is an MPS-shared GPU pool driven by a sim.Engine.
type Cluster struct {
	eng      *sim.Engine
	gpus     []*gpu
	profiles []FunctionProfile

	completed   int
	total       int
	sloHits     int
	slowdownSum float64
	procCount   int
}

// NewCluster builds an MPS pool of n GPUs.
func NewCluster(eng *sim.Engine, n int, profiles []FunctionProfile) *Cluster {
	if n <= 0 {
		panic("mps: need at least one GPU")
	}
	c := &Cluster{eng: eng, profiles: profiles}
	for i := 0; i < n; i++ {
		c.gpus = append(c.gpus, &gpu{id: i})
	}
	return c
}

// Submit routes one request: to an existing idle process of the
// function, else the least-queued process, spawning a new process on
// the least-loaded GPU with memory headroom when all are busy.
func (c *Cluster) Submit(fn int, arrival float64) {
	c.total++
	prof := c.profiles[fn]
	var target *process
	for _, g := range c.gpus {
		for _, p := range g.procs {
			if p.fn != fn {
				continue
			}
			if target == nil || len(p.queue) < len(target.queue) {
				target = p
			}
		}
	}
	// Spawn when no process exists or the best is already backed up and
	// some GPU has memory headroom.
	if target == nil || (len(target.queue) > 0 && c.spawnable(prof)) {
		if p := c.spawn(fn); p != nil {
			target = p
		}
	}
	if target == nil {
		// Memory exhausted everywhere: count as an unserved request.
		return
	}
	rq := &request{fn: fn, arrival: arrival}
	target.queue = append(target.queue, rq)
	c.kick(target)
}

func (c *Cluster) spawnable(prof FunctionProfile) bool {
	for _, g := range c.gpus {
		if g.memGB+prof.MemGB <= GPUMemGB {
			return true
		}
	}
	return false
}

func (c *Cluster) spawn(fn int) *process {
	prof := c.profiles[fn]
	var best *gpu
	for _, g := range c.gpus {
		if g.memGB+prof.MemGB > GPUMemGB {
			continue
		}
		if best == nil || g.load(c.profiles) < best.load(c.profiles) {
			best = g
		}
	}
	if best == nil {
		return nil
	}
	now := c.eng.Now()
	best.accrueExposure(now)
	p := &process{fn: fn, gpu: best, createdAt: now}
	best.procs = append(best.procs, p)
	best.memGB += prof.MemGB
	c.procCount++
	return p
}

func (g *gpu) load(profiles []FunctionProfile) float64 {
	w := 0.0
	for _, p := range g.procs {
		w += profiles[p.fn].WantGPCs
	}
	return w
}

func (c *Cluster) kick(p *process) {
	if p.busy || len(p.queue) == 0 {
		return
	}
	rq := p.queue[0]
	p.queue = p.queue[1:]
	p.busy = true
	prof := c.profiles[p.fn]
	// Interference snapshot at dispatch: the MPS hazard the paper
	// describes — service time depends on who else is running.
	others := p.gpu.wantSum(p, c.profiles)
	slow := Slowdown(prof.WantGPCs, others)
	service := prof.Exec * slow
	c.eng.After(service, func() {
		now := c.eng.Now()
		p.busy = false
		c.completed++
		c.slowdownSum += slow
		if lat := now - rq.arrival; prof.SLO > 0 && lat <= prof.SLO {
			c.sloHits++
		}
		c.kick(p)
	})
}

// Finish closes exposure accounting and returns the run summary.
func (c *Cluster) Finish(duration float64) Result {
	exposure := 0.0
	for _, g := range c.gpus {
		g.accrueExposure(c.eng.Now())
		exposure += g.exposure
	}
	r := Result{
		Completed:       c.completed,
		Total:           c.total,
		SLOHit:          0,
		ExposureSeconds: exposure,
		Processes:       c.procCount,
	}
	if duration > 0 {
		r.Throughput = float64(c.completed) / duration
	}
	if c.total > 0 {
		r.SLOHit = float64(c.sloHits) / float64(c.total)
	}
	if c.completed > 0 {
		r.MeanSlowdown = c.slowdownSum / float64(c.completed)
	}
	return r
}
