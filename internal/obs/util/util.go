// Package util is the GPU utilization ledger: a time-weighted per-slice
// state integrator that classifies every slice-second of a run into a
// closed set of states, so the platform can answer "where did the
// GPU-seconds go" for hardware the way the span trace answers it for
// requests. The paper's premise is that coarse allocation strands
// capacity (§4); this ledger is the instrument that measures the
// stranding — and the waste attribution HAS-GPU-style repartition
// policies need as input (ROADMAP §2).
//
// The ledger is a pure observer fed by the platform's slice-state
// transition hooks (bind/unbind, keepalive park, quarantine/probation,
// fault teardown) plus busy-interval claims mirroring the span
// recorder's load/exec/transfer spans. Like every observer layer here,
// a nil *Ledger is the disabled sink: every method short-circuits, so a
// run with the ledger attached is bit-for-bit identical to one without.
//
// Model: each slice carries a piecewise-constant BASE timeline (what
// the slice is when no work runs on it: warm-idle, cold-idle, stranded,
// quarantined) and a set of BUSY interval claims (exec, load,
// transfer). At Close the two resolve into contiguous per-slice
// segments by a priority sweep — exec over load over transfer over
// base — so the state seconds of one slice tile its wall time exactly
// (the conservation invariant Check enforces).
package util

import (
	"cmp"
	"fmt"
	"slices"

	"fluidfaas/internal/obs/chunk"
)

// State classifies one slice-second. The declaration order is the
// resolution priority for busy states (exec wins over load wins over
// transfer) and the canonical order of every export.
type State int

// The closed state set. Every slice-second of a run lands in exactly
// one of these.
const (
	// BusyExec: a stage execution ran on the slice.
	BusyExec State = iota
	// BusyLoad: model weights were being fetched onto the slice.
	BusyLoad
	// BusyTransfer: an inter-stage activation transfer ran.
	BusyTransfer
	// WarmIdle: the slice is allocated (exclusive instance or
	// time-sharing pool) but no work is running — keepalive cost.
	WarmIdle
	// ColdIdle: the slice is free and at least one registered deployable
	// unit (monolithic function or pipeline stage) could be placed on it.
	ColdIdle
	// Stranded: the slice is free but too small for any registered
	// stage — fragmentation waste, the capacity §4 says MIG strands.
	Stranded
	// Quarantined: the slice is out of placement (unhealthy hardware or
	// gray-failure quarantine).
	Quarantined
	// Reconfiguring: the slice's GPU is mid-repartition and unavailable.
	// A run's partition is fixed, so the platform never produces it; it
	// stays in the closed set so every export keeps its layout.
	Reconfiguring
	numStates
)

// NumStates is the number of ledger states; State values are dense in
// [0, NumStates).
const NumStates = int(numStates)

// States lists all states in canonical (priority/export) order.
var States = []State{
	BusyExec, BusyLoad, BusyTransfer, WarmIdle,
	ColdIdle, Stranded, Quarantined, Reconfiguring,
}

var stateNames = [numStates]string{
	BusyExec:      "busy-exec",
	BusyLoad:      "busy-load",
	BusyTransfer:  "busy-transfer",
	WarmIdle:      "warm-idle",
	ColdIdle:      "cold-idle",
	Stranded:      "stranded",
	Quarantined:   "quarantined",
	Reconfiguring: "reconfiguring",
}

// String names the state as it appears in every export.
func (s State) String() string {
	if s < 0 || s >= numStates {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON renders the state name, so Segment and Totals JSON carry
// readable states instead of enum ordinals.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Busy reports whether the state is a busy claim state (the only states
// Ledger.Busy accepts).
func (s State) Busy() bool { return s <= BusyTransfer }

// basePoint is one base-timeline transition: the slice's idle state
// from t onward (until the next point).
type basePoint struct {
	t float64
	s State
}

// claim is one busy interval on a slice.
type claim struct {
	s          State
	start, end float64
}

// sliceSeries is the ledger's record of one slice: its identity and
// one timeline from time 0 to the end of the run. The claims are a
// chunked table, so claiming never copies the claims before it.
type sliceSeries struct {
	id    string
	node  int
	gpu   int
	typ   string
	gpcs  int
	memGB float64
	base  []basePoint
	busy  chunk.Table[claim]
}

// FragSample is one fragmentation-analytics sample: the scalar
// fragmentation index decomposed into stranded capacity and placement
// headroom.
type FragSample struct {
	// Time is the sample's virtual time.
	Time float64 `json:"time"`
	// Index is mig.FragmentationIndex over the free slices.
	Index float64 `json:"index"`
	// FreeGPCs is the total free compute at the sample.
	FreeGPCs int `json:"free_gpcs"`
	// StrandedGPCs and StrandedGB are the free capacity no registered
	// deployable unit can use — the fragmentation waste decomposition.
	StrandedGPCs int     `json:"stranded_gpcs"`
	StrandedGB   float64 `json:"stranded_gb"`
	// LargestPlaceableGPCs is the compute of the largest free slice a
	// registered stage could still be placed on (0 = nothing placeable):
	// the headroom series a repartition policy would watch.
	LargestPlaceableGPCs int `json:"largest_placeable_gpcs"`
}

// Ledger accumulates slice-state timelines for one run. The zero value
// is not ready — use NewLedger; a nil *Ledger is the disabled sink and
// every method short-circuits.
type Ledger struct {
	slices map[string]*sliceSeries
	order  []string // first-registration order, fixes every export
	frag   []FragSample

	closed bool
	end    float64
	report *Report
}

// NewLedger returns an empty, enabled ledger.
func NewLedger() *Ledger {
	return &Ledger{slices: make(map[string]*sliceSeries)}
}

func (l *Ledger) series(id string) *sliceSeries {
	ss := l.slices[id]
	if ss == nil {
		panic("util: unregistered slice " + id)
	}
	return ss
}

// Register opens a slice's timeline: topology identity, capacity, and
// the base state it starts in at time 0. The timeline runs until
// Close, since a run's partition is fixed; registering an ID twice is
// a caller bug.
func (l *Ledger) Register(id string, node, gpu int, sliceType string, gpcs int, memGB float64, base State) {
	if l == nil {
		return
	}
	if l.closed {
		panic("util: Register after Close")
	}
	if l.slices[id] != nil {
		panic("util: Register of registered slice " + id)
	}
	l.slices[id] = &sliceSeries{
		id: id, node: node, gpu: gpu, typ: sliceType, gpcs: gpcs, memGB: memGB,
		base: []basePoint{{t: 0, s: base}},
	}
	l.order = append(l.order, id)
}

// SetBase records the slice's base (no-work) state from now on. Calls
// with an unchanged state are no-ops, so hooks can re-derive the state
// after every transition without bloating the timeline; a second
// transition at the same timestamp wins (teardowns collapse several
// state flips into one instant).
func (l *Ledger) SetBase(id string, now float64, s State) {
	if l == nil {
		return
	}
	if s.Busy() {
		panic("util: busy state " + s.String() + " is claimed via Busy, not SetBase")
	}
	ss := l.series(id)
	last := &ss.base[len(ss.base)-1]
	if now < last.t {
		panic("util: SetBase time goes backwards on " + id)
	}
	if last.s == s {
		return
	}
	if now == last.t {
		last.s = s
		// Collapsing may re-merge with the point before it.
		if n := len(ss.base); n >= 2 && ss.base[n-2].s == s {
			ss.base = ss.base[:n-1]
		}
		return
	}
	ss.base = append(ss.base, basePoint{t: now, s: s})
}

// Busy claims a busy interval on the slice, mirroring the span the
// trace recorder gets (including spans recorded upfront with future end
// times — Close clips them to the run window). Zero- and negative-
// length claims are dropped: they carry no slice-seconds.
func (l *Ledger) Busy(id string, s State, start, end float64) {
	if l == nil {
		return
	}
	if !s.Busy() {
		panic("util: Busy with non-busy state " + s.String())
	}
	if end <= start {
		return
	}
	l.series(id).busy.Push(claim{s: s, start: start, end: end})
}

// CancelBusy truncates the slice's busy claims at `at`: claims that
// start later vanish, claims spanning it end there. The platform calls
// it, beside obs.Recorder.CancelSliceWork, for every slice a fault or
// quarantine teardown transition touches, so upfront-recorded work
// that died with its owner does not masquerade as busy time after the
// teardown.
func (l *Ledger) CancelBusy(id string, at float64) {
	if l == nil {
		return
	}
	// Compact in place, in claim order.
	busy := &l.series(id).busy
	n := 0
	for c := range busy.All() {
		if c.end > at {
			if c.start >= at {
				continue
			}
			c.end = at
		}
		*busy.At(n) = *c
		n++
	}
	busy.Truncate(n)
}

// AddFragSample appends one fragmentation-analytics sample. Samples
// must arrive in non-decreasing time order (they do: the platform
// samples on its single-threaded engine).
func (l *Ledger) AddFragSample(s FragSample) {
	if l == nil {
		return
	}
	if n := len(l.frag); n > 0 && s.Time < l.frag[n-1].Time {
		panic("util: fragmentation samples out of order")
	}
	l.frag = append(l.frag, s)
}

// Close ends the run at `end`: every timeline is bounded there, busy
// claims are clipped to it, and the base/busy timelines resolve into
// the contiguous per-slice segments Report exposes. Idempotent; later
// calls are no-ops.
func (l *Ledger) Close(end float64) {
	if l == nil || l.closed {
		return
	}
	l.closed = true
	l.end = end
	l.report = l.build(end)
}

// Report returns the resolved utilization report. Calling it before
// Close is a caller bug and panics: the ledger cannot know where the
// run ends.
func (l *Ledger) Report() *Report {
	if l == nil {
		return nil
	}
	if !l.closed {
		panic("util: Report before Close")
	}
	return l.report
}

// sweepEv is one claim boundary in resolve's sweep: claim state s
// starts (delta 1) or ends (delta -1) at t.
type sweepEv struct {
	t     float64
	s     State
	delta int
}

// sweep is resolve's scratch: the claim boundaries and the sorted
// segment bounds of one slice. Close sizes it once, for the slice with
// the most claims and base points, and every slice reuses it.
type sweep struct {
	evs    []sweepEv
	bounds []float64
}

// newSweep returns a sweep with room for any of the ledger's slices.
func (l *Ledger) newSweep() *sweep {
	claims, base := 0, 0
	for _, ss := range l.slices {
		claims = max(claims, ss.busy.Len())
		base = max(base, len(ss.base))
	}
	return &sweep{
		evs:    make([]sweepEv, 0, 2*claims),
		bounds: make([]float64, 0, 2+2*claims+base),
	}
}

// resolve turns the slice's base timeline and busy claims into
// contiguous segments over [0, end] via a single sweep:
// at every elementary interval the highest-priority active busy claim
// wins, else the base state. Segment boundaries come from one shared
// sorted slice, so consecutive segments abut exactly (bitwise-equal
// floats), which is what makes the conservation check exact. The sweep
// buffers are sw's, sized for every slice, so only the segments are
// allocated here.
func (ss *sliceSeries) resolve(end float64, sw *sweep) []Segment {
	if end <= 0 {
		return nil
	}

	// Clip claims to the run window; build start/end events.
	evs := sw.evs[:0]
	bounds := append(sw.bounds[:0], 0, end)
	for c := range ss.busy.All() {
		cs, ce := c.start, c.end
		if cs < 0 {
			cs = 0
		}
		if ce > end {
			ce = end
		}
		if cs >= ce {
			continue
		}
		evs = append(evs, sweepEv{t: cs, s: c.s, delta: 1}, sweepEv{t: ce, s: c.s, delta: -1})
		bounds = append(bounds, cs, ce)
	}
	for _, bp := range ss.base {
		if bp.t > 0 && bp.t < end {
			bounds = append(bounds, bp.t)
		}
	}
	slices.Sort(bounds)
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	// The sweep sums the deltas of all events at one t before reading
	// them, so the order among tied events does not matter.
	slices.SortFunc(evs, func(a, b sweepEv) int { return cmp.Compare(a.t, b.t) })

	segs := make([]Segment, 0, len(uniq)-1)
	var active [BusyTransfer + 1]int
	ei, bi := 0, 0
	for i := 0; i+1 < len(uniq); i++ {
		a, b := uniq[i], uniq[i+1]
		for ei < len(evs) && evs[ei].t <= a {
			active[evs[ei].s] += evs[ei].delta
			ei++
		}
		for bi+1 < len(ss.base) && ss.base[bi+1].t <= a {
			bi++
		}
		st := ss.base[bi].s
		for s := BusyExec; s <= BusyTransfer; s++ {
			if active[s] > 0 {
				st = s
				break
			}
		}
		if n := len(segs); n > 0 && segs[n-1].State == st {
			segs[n-1].End = b
		} else {
			segs = append(segs, Segment{State: st, Start: a, End: b})
		}
	}
	return segs
}
