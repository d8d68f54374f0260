package util

import (
	"fmt"
	"io"
	"math"

	"fluidfaas/internal/obs/jsonw"
)

// Segment is one resolved run of a single state on a slice. Consecutive
// segments of a slice abut exactly (bitwise-equal boundaries).
type Segment struct {
	State State   `json:"state"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Totals is slice-seconds (or GPC-seconds) by state. Field order fixes
// the JSON byte layout.
type Totals struct {
	BusyExec      float64 `json:"busy_exec"`
	BusyLoad      float64 `json:"busy_load"`
	BusyTransfer  float64 `json:"busy_transfer"`
	WarmIdle      float64 `json:"warm_idle"`
	ColdIdle      float64 `json:"cold_idle"`
	Stranded      float64 `json:"stranded"`
	Quarantined   float64 `json:"quarantined"`
	Reconfiguring float64 `json:"reconfiguring"`
}

func (t *Totals) ptr(s State) *float64 {
	switch s {
	case BusyExec:
		return &t.BusyExec
	case BusyLoad:
		return &t.BusyLoad
	case BusyTransfer:
		return &t.BusyTransfer
	case WarmIdle:
		return &t.WarmIdle
	case ColdIdle:
		return &t.ColdIdle
	case Stranded:
		return &t.Stranded
	case Quarantined:
		return &t.Quarantined
	case Reconfiguring:
		return &t.Reconfiguring
	}
	panic("util: invalid state " + s.String())
}

// Add accumulates sec seconds of state s.
func (t *Totals) Add(s State, sec float64) { *t.ptr(s) += sec }

// AddScaled accumulates k × o into t (GPC weighting).
func (t *Totals) AddScaled(o Totals, k float64) {
	for _, s := range States {
		*t.ptr(s) += k * o.Get(s)
	}
}

// Get returns the seconds accumulated under state s.
func (t Totals) Get(s State) float64 { return *t.ptr(s) }

// Busy returns the productive seconds (exec + load + transfer).
func (t Totals) Busy() float64 { return t.BusyExec + t.BusyLoad + t.BusyTransfer }

// Sum returns the seconds across all states.
func (t Totals) Sum() float64 {
	sum := 0.0
	for _, s := range States {
		sum += t.Get(s)
	}
	return sum
}

// SliceReport is one slice's resolved timeline and totals.
type SliceReport struct {
	ID    string  `json:"id"`
	Node  int     `json:"node"`
	GPU   int     `json:"gpu"`
	Type  string  `json:"type"`
	GPCs  int     `json:"gpcs"`
	MemGB float64 `json:"mem_gb"`
	// Wall is the slice's existence time, the run length: the
	// partition is fixed, so every slice exists for the whole run.
	Wall     float64   `json:"wall"`
	Seconds  Totals    `json:"seconds"`
	Segments []Segment `json:"segments"`
}

// GPUReport rolls a GPU's slices up, in plain and GPC-weighted seconds.
type GPUReport struct {
	Node       int    `json:"node"`
	GPU        int    `json:"gpu"`
	GPCs       int    `json:"gpcs"`
	Seconds    Totals `json:"seconds"`
	GPCSeconds Totals `json:"gpc_seconds"`
}

// NodeReport rolls a node's GPUs up.
type NodeReport struct {
	Node       int    `json:"node"`
	GPCs       int    `json:"gpcs"`
	Seconds    Totals `json:"seconds"`
	GPCSeconds Totals `json:"gpc_seconds"`
}

// Report is the resolved utilization ledger: per-slice segments with
// GPU/node/cluster roll-ups and the fragmentation-analytics series.
// All orders are deterministic (slice registration order).
type Report struct {
	// Duration is the run length the ledger was closed at.
	Duration float64 `json:"duration"`
	// SliceSeconds and GPCSeconds are the total accounted capacity
	// (the conservation denominators).
	SliceSeconds float64 `json:"slice_seconds"`
	GPCSeconds   float64 `json:"gpc_seconds"`
	// Cluster is the cluster-wide roll-up in slice-seconds; ClusterGPC
	// weights each slice by its GPC count (so a wasted 4g slice-second
	// costs 4× a wasted 1g one, matching the paper's GPU-time metric).
	Cluster    Totals `json:"cluster"`
	ClusterGPC Totals `json:"cluster_gpc_seconds"`

	Nodes  []NodeReport  `json:"nodes"`
	GPUs   []GPUReport   `json:"gpus"`
	Slices []SliceReport `json:"slices"`

	Fragmentation []FragSample `json:"fragmentation"`
}

// build resolves every slice and aggregates the roll-ups.
func (l *Ledger) build(end float64) *Report {
	rep := &Report{Duration: end, Fragmentation: l.frag}
	type gpuKey struct{ node, gpu int }
	gpuIdx := map[gpuKey]int{}
	nodeIdx := map[int]int{}
	sw := l.newSweep()
	for _, id := range l.order {
		ss := l.slices[id]
		sr := SliceReport{
			ID: ss.id, Node: ss.node, GPU: ss.gpu,
			Type: ss.typ, GPCs: ss.gpcs, MemGB: ss.memGB,
		}
		if end > 0 {
			sr.Wall = end
		}
		sr.Segments = ss.resolve(end, sw)
		for _, seg := range sr.Segments {
			sr.Seconds.Add(seg.State, seg.End-seg.Start)
		}
		rep.SliceSeconds += sr.Wall
		rep.GPCSeconds += float64(sr.GPCs) * sr.Wall
		rep.Cluster.AddScaled(sr.Seconds, 1)
		rep.ClusterGPC.AddScaled(sr.Seconds, float64(sr.GPCs))

		gk := gpuKey{ss.node, ss.gpu}
		gi, ok := gpuIdx[gk]
		if !ok {
			gi = len(rep.GPUs)
			gpuIdx[gk] = gi
			rep.GPUs = append(rep.GPUs, GPUReport{Node: ss.node, GPU: ss.gpu})
		}
		rep.GPUs[gi].GPCs += sr.GPCs
		rep.GPUs[gi].Seconds.AddScaled(sr.Seconds, 1)
		rep.GPUs[gi].GPCSeconds.AddScaled(sr.Seconds, float64(sr.GPCs))

		ni, ok := nodeIdx[ss.node]
		if !ok {
			ni = len(rep.Nodes)
			nodeIdx[ss.node] = ni
			rep.Nodes = append(rep.Nodes, NodeReport{Node: ss.node})
		}
		rep.Nodes[ni].GPCs += sr.GPCs
		rep.Nodes[ni].Seconds.AddScaled(sr.Seconds, 1)
		rep.Nodes[ni].GPCSeconds.AddScaled(sr.Seconds, float64(sr.GPCs))

		rep.Slices = append(rep.Slices, sr)
	}
	return rep
}

// conservationEps bounds the floating-point slack the conservation
// check tolerates when summing state seconds (the segment boundaries
// themselves must match exactly).
const conservationEps = 1e-6

// Check verifies the conservation invariant on the resolved report:
// every slice's segments tile the run exactly — first boundary at
// time 0, consecutive segments abutting with bitwise-equal
// floats, last boundary at run end — and the per-state seconds sum back
// to the slice's wall time. An error here means the ledger lost or
// double-counted slice-seconds. Like Report, it panics before Close.
func (l *Ledger) Check() error {
	if l == nil {
		return nil
	}
	rep := l.Report()
	for _, sr := range rep.Slices {
		if l.end <= 0 {
			if len(sr.Segments) != 0 {
				return fmt.Errorf("util: %s: %d segments outside the run", sr.ID, len(sr.Segments))
			}
			continue
		}
		prev := 0.0
		for _, seg := range sr.Segments {
			if seg.Start != prev {
				return fmt.Errorf("util: %s: segment gap [%v != %v)", sr.ID, prev, seg.Start)
			}
			if seg.End <= seg.Start {
				return fmt.Errorf("util: %s: empty segment at %v", sr.ID, seg.Start)
			}
			prev = seg.End
		}
		if prev != l.end {
			return fmt.Errorf("util: %s: run ends at %v, segments at %v", sr.ID, l.end, prev)
		}
		if d := math.Abs(sr.Seconds.Sum() - sr.Wall); d > conservationEps*math.Max(1, sr.Wall) {
			return fmt.Errorf("util: %s: state seconds %v != wall %v (off by %v)",
				sr.ID, sr.Seconds.Sum(), sr.Wall, d)
		}
	}
	if d := math.Abs(rep.Cluster.Sum() - rep.SliceSeconds); d > conservationEps*math.Max(1, rep.SliceSeconds) {
		return fmt.Errorf("util: cluster seconds %v != capacity %v", rep.Cluster.Sum(), rep.SliceSeconds)
	}
	return nil
}

// WriteJSON writes the report as JSON indented by two spaces, the
// bytes an encoding/json Encoder gives the struct (a nil report is
// null). Deterministic: struct field order plus registration-ordered
// slices ⇒ identical reports produce byte-identical output. The writer
// streams through one reused buffer; a NaN or infinite value anywhere
// is an error, reported before anything is written.
func (r *Report) WriteJSON(w io.Writer) error {
	if err := r.checkFinite(); err != nil {
		return err
	}
	jw := jsonw.NewWriter(w, "  ")
	if r == nil {
		jw.Null()
		return jw.Finish()
	}
	jw.BeginObject()
	jw.Key("duration")
	jw.Float(r.Duration)
	jw.Key("slice_seconds")
	jw.Float(r.SliceSeconds)
	jw.Key("gpc_seconds")
	jw.Float(r.GPCSeconds)
	jw.Key("cluster")
	r.Cluster.write(jw)
	jw.Key("cluster_gpc_seconds")
	r.ClusterGPC.write(jw)
	jw.Key("nodes")
	jsonw.Array(jw, r.Nodes, (*NodeReport).write)
	jw.Key("gpus")
	jsonw.Array(jw, r.GPUs, (*GPUReport).write)
	jw.Key("slices")
	jsonw.Array(jw, r.Slices, (*SliceReport).write)
	jw.Key("fragmentation")
	jsonw.Array(jw, r.Fragmentation, (*FragSample).write)
	jw.EndObject()
	return jw.Finish()
}

// checkFinite rejects a report holding a NaN or infinity, which JSON
// cannot carry.
func (r *Report) checkFinite() error {
	if r == nil {
		return nil
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("util: json export: non-finite "+format, args...)
	}
	if !jsonw.Finite(r.Duration) || !jsonw.Finite(r.SliceSeconds) || !jsonw.Finite(r.GPCSeconds) {
		return bad("capacity: duration %v, slice_seconds %v, gpc_seconds %v", r.Duration, r.SliceSeconds, r.GPCSeconds)
	}
	if !r.Cluster.finite() || !r.ClusterGPC.finite() {
		return bad("cluster totals: %+v, gpc %+v", r.Cluster, r.ClusterGPC)
	}
	for i := range r.Nodes {
		if n := &r.Nodes[i]; !n.Seconds.finite() || !n.GPCSeconds.finite() {
			return bad("node %d totals: %+v, gpc %+v", n.Node, n.Seconds, n.GPCSeconds)
		}
	}
	for i := range r.GPUs {
		if g := &r.GPUs[i]; !g.Seconds.finite() || !g.GPCSeconds.finite() {
			return bad("node %d gpu %d totals: %+v, gpc %+v", g.Node, g.GPU, g.Seconds, g.GPCSeconds)
		}
	}
	for i := range r.Slices {
		s := &r.Slices[i]
		if !jsonw.Finite(s.MemGB) || !jsonw.Finite(s.Wall) || !s.Seconds.finite() {
			return bad("slice %s: mem_gb %v, wall %v, totals %+v", s.ID, s.MemGB, s.Wall, s.Seconds)
		}
		for j, seg := range s.Segments {
			if !jsonw.Finite(seg.Start) || !jsonw.Finite(seg.End) {
				return bad("slice %s segment %d: [%v, %v)", s.ID, j, seg.Start, seg.End)
			}
		}
	}
	for i, fs := range r.Fragmentation {
		if !jsonw.Finite(fs.Time) || !jsonw.Finite(fs.Index) || !jsonw.Finite(fs.StrandedGB) {
			return bad("fragmentation sample %d: time %v, index %v, stranded_gb %v", i, fs.Time, fs.Index, fs.StrandedGB)
		}
	}
	return nil
}

// finite reports whether every state's seconds are finite.
func (t *Totals) finite() bool {
	for _, s := range States {
		if !jsonw.Finite(t.Get(s)) {
			return false
		}
	}
	return true
}

func (t *Totals) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("busy_exec")
	jw.Float(t.BusyExec)
	jw.Key("busy_load")
	jw.Float(t.BusyLoad)
	jw.Key("busy_transfer")
	jw.Float(t.BusyTransfer)
	jw.Key("warm_idle")
	jw.Float(t.WarmIdle)
	jw.Key("cold_idle")
	jw.Float(t.ColdIdle)
	jw.Key("stranded")
	jw.Float(t.Stranded)
	jw.Key("quarantined")
	jw.Float(t.Quarantined)
	jw.Key("reconfiguring")
	jw.Float(t.Reconfiguring)
	jw.EndObject()
}

func (n *NodeReport) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("node")
	jw.Int(n.Node)
	jw.Key("gpcs")
	jw.Int(n.GPCs)
	jw.Key("seconds")
	n.Seconds.write(jw)
	jw.Key("gpc_seconds")
	n.GPCSeconds.write(jw)
	jw.EndObject()
}

func (g *GPUReport) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("node")
	jw.Int(g.Node)
	jw.Key("gpu")
	jw.Int(g.GPU)
	jw.Key("gpcs")
	jw.Int(g.GPCs)
	jw.Key("seconds")
	g.Seconds.write(jw)
	jw.Key("gpc_seconds")
	g.GPCSeconds.write(jw)
	jw.EndObject()
}

func (s *SliceReport) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("id")
	jw.String(s.ID)
	jw.Key("node")
	jw.Int(s.Node)
	jw.Key("gpu")
	jw.Int(s.GPU)
	jw.Key("type")
	jw.String(s.Type)
	jw.Key("gpcs")
	jw.Int(s.GPCs)
	jw.Key("mem_gb")
	jw.Float(s.MemGB)
	jw.Key("wall")
	jw.Float(s.Wall)
	jw.Key("seconds")
	s.Seconds.write(jw)
	jw.Key("segments")
	jsonw.Array(jw, s.Segments, (*Segment).write)
	jw.EndObject()
}

func (s *Segment) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("state")
	jw.String(s.State.String())
	jw.Key("start")
	jw.Float(s.Start)
	jw.Key("end")
	jw.Float(s.End)
	jw.EndObject()
}

func (f *FragSample) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("time")
	jw.Float(f.Time)
	jw.Key("index")
	jw.Float(f.Index)
	jw.Key("free_gpcs")
	jw.Int(f.FreeGPCs)
	jw.Key("stranded_gpcs")
	jw.Int(f.StrandedGPCs)
	jw.Key("stranded_gb")
	jw.Float(f.StrandedGB)
	jw.Key("largest_placeable_gpcs")
	jw.Int(f.LargestPlaceableGPCs)
	jw.EndObject()
}
