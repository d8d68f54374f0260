package faults

import (
	"math"
	"testing"
)

func testTopo() Topology {
	// 2 nodes × 2 GPUs × 3 slices, the default partition's shape.
	return Topology{Nodes: []NodeTopo{
		{Slices: []int{3, 3}},
		{Slices: []int{3, 3}},
	}}
}

func TestBuildZeroSpecEmpty(t *testing.T) {
	s := Build(Spec{}, 42, 300, testTopo())
	if s.Len() != 0 {
		t.Fatalf("zero-rate spec produced %d events", s.Len())
	}
	if (Spec{}).Enabled() {
		t.Error("zero spec reports enabled")
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := Spec{SliceRate: 0.05, GPURate: 0.01, NodeRate: 0.002}
	a := Build(spec, 7, 300, testTopo())
	b := Build(spec, 7, 300, testTopo())
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs:\n%v\n%v", i, a.Events[i], b.Events[i])
		}
	}
	c := Build(spec, 8, 300, testTopo())
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same && len(a.Events) > 0 {
		t.Error("different seeds produced identical schedules")
	}
}

// Enabling one fault class must not perturb another class's draws
// (independent RNG streams).
func TestClassIndependence(t *testing.T) {
	sliceOnly := Build(Spec{SliceRate: 0.05}, 7, 300, testTopo())
	both := Build(Spec{SliceRate: 0.05, NodeRate: 0.01}, 7, 300, testTopo())
	var bothSlices []Event
	for _, e := range both.Events {
		if e.Kind == SliceFault {
			bothSlices = append(bothSlices, e)
		}
	}
	if len(bothSlices) != len(sliceOnly.Events) {
		t.Fatalf("slice draws changed when node faults were enabled: %d vs %d",
			len(bothSlices), len(sliceOnly.Events))
	}
	for i := range bothSlices {
		if bothSlices[i] != sliceOnly.Events[i] {
			t.Fatalf("slice event %d perturbed by the node stream", i)
		}
	}
}

func TestBuildEventShape(t *testing.T) {
	spec := Spec{SliceRate: 0.1, GPURate: 0.05, NodeRate: 0.02}
	s := Build(spec, 13, 200, testTopo())
	if s.Len() == 0 {
		t.Fatal("no events at substantial rates")
	}
	last := -1.0
	for _, e := range s.Events {
		if e.Time < 0 || e.Time >= 200 {
			t.Fatalf("event outside horizon: %v", e)
		}
		if e.Time < last {
			t.Fatalf("events out of order: %v after %.2f", e, last)
		}
		last = e.Time
		if e.Recovery <= e.Time {
			t.Fatalf("recovery not after fault: %v", e)
		}
		if e.Node < 0 || e.Node >= 2 {
			t.Fatalf("victim node out of range: %v", e)
		}
		switch e.Kind {
		case SliceFault:
			if e.GPU < 0 || e.GPU >= 2 || e.Slice < 0 || e.Slice >= 3 {
				t.Fatalf("slice victim out of range: %v", e)
			}
		case GPUFault:
			if e.GPU < 0 || e.GPU >= 2 || e.Slice != -1 {
				t.Fatalf("gpu victim malformed: %v", e)
			}
		case NodeCrash:
			if e.GPU != -1 || e.Slice != -1 {
				t.Fatalf("node victim malformed: %v", e)
			}
		}
		if e.String() == "" || e.Kind.String() == "" {
			t.Fatal("empty render")
		}
	}
}

// Degraded events carry an in-range severity, target real slices, and
// come from their own RNG stream (enabling the class must not perturb
// the fail-stop draws).
func TestDegradedGeneration(t *testing.T) {
	spec := Spec{DegradedRate: 0.1}
	s := Build(spec, 11, 300, testTopo())
	if s.Len() == 0 {
		t.Fatal("no degraded events at a substantial rate")
	}
	for _, e := range s.Events {
		if e.Kind != SliceDegraded {
			t.Fatalf("unexpected kind in degraded-only build: %v", e)
		}
		if e.Severity < 1.5 || e.Severity > 8 {
			t.Fatalf("severity %.2f outside default [1.5, 8]: %v", e.Severity, e)
		}
		if e.GPU < 0 || e.GPU >= 2 || e.Slice < 0 || e.Slice >= 3 {
			t.Fatalf("degraded victim out of range: %v", e)
		}
		if e.Recovery <= e.Time {
			t.Fatalf("recovery not after onset: %v", e)
		}
	}
	if !spec.Enabled() {
		t.Error("degraded-only spec reports disabled")
	}

	sliceOnly := Build(Spec{SliceRate: 0.05}, 11, 300, testTopo())
	both := Build(Spec{SliceRate: 0.05, DegradedRate: 0.1}, 11, 300, testTopo())
	var bothSlices []Event
	for _, e := range both.Events {
		if e.Kind == SliceFault {
			bothSlices = append(bothSlices, e)
		}
	}
	if len(bothSlices) != len(sliceOnly.Events) {
		t.Fatalf("slice draws changed when degradation was enabled: %d vs %d",
			len(bothSlices), len(sliceOnly.Events))
	}
	for i := range bothSlices {
		if bothSlices[i] != sliceOnly.Events[i] {
			t.Fatalf("slice event %d perturbed by the degraded stream", i)
		}
	}
}

// TestDegradedSeverityBounds: custom severity bounds are respected.
func TestDegradedSeverityBounds(t *testing.T) {
	spec := Spec{DegradedRate: 0.1, DegradedMinSeverity: 2, DegradedMaxSeverity: 3}
	s := Build(spec, 5, 300, testTopo())
	for _, e := range s.Events {
		if e.Severity < 2 || e.Severity > 3 {
			t.Fatalf("severity %.2f outside [2, 3]", e.Severity)
		}
	}
}

// TestValidateScript: out-of-range victims, inverted windows, bad
// severities and overlapping same-victim windows are rejected with a
// clear error; valid scripts (including the shapes existing regression
// tests use) pass.
func TestValidateScript(t *testing.T) {
	topo := testTopo()
	cases := []struct {
		name   string
		script []Event
		ok     bool
	}{
		{"valid mixed", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 1, Slice: 2, Recovery: 40},
			{Time: 50, Kind: GPUFault, Node: 1, GPU: 0, Slice: -1, Recovery: 120},
			{Time: 60, Kind: NodeCrash, Node: 1, GPU: -1, Slice: -1, Recovery: 200},
			{Time: 70, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 100, Severity: 3},
		}, true},
		{"node out of range", []Event{
			{Time: 1, Kind: NodeCrash, Node: 2, GPU: -1, Slice: -1, Recovery: 5},
		}, false},
		{"negative node", []Event{
			{Time: 1, Kind: SliceFault, Node: -1, GPU: 0, Slice: 0, Recovery: 5},
		}, false},
		{"gpu out of range", []Event{
			{Time: 1, Kind: GPUFault, Node: 0, GPU: 2, Slice: -1, Recovery: 5},
		}, false},
		{"slice out of range", []Event{
			{Time: 1, Kind: SliceFault, Node: 0, GPU: 0, Slice: 3, Recovery: 5},
		}, false},
		{"slice index on gpu fault ignored", []Event{
			{Time: 1, Kind: GPUFault, Node: 0, GPU: 0, Slice: -1, Recovery: 5},
		}, true},
		{"recovery before fault", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 10},
		}, false},
		{"degraded severity below 1", []Event{
			{Time: 1, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 5, Severity: 0.5},
		}, false},
		{"degraded severity NaN", []Event{
			{Time: 1, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 5, Severity: math.NaN()},
		}, false},
		{"degraded severity +Inf", []Event{
			{Time: 1, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 5, Severity: math.Inf(1)},
		}, false},
		{"fault time NaN", []Event{
			{Time: math.NaN(), Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 5},
		}, false},
		{"fault time negative", []Event{
			{Time: -3, Kind: NodeCrash, Node: 0, GPU: -1, Slice: -1, Recovery: 5},
		}, false},
		{"fault time -Inf", []Event{
			{Time: math.Inf(-1), Kind: GPUFault, Node: 0, GPU: 0, Slice: -1, Recovery: 5},
		}, false},
		{"fault time +Inf", []Event{
			{Time: math.Inf(1), Kind: GPUFault, Node: 0, GPU: 0, Slice: -1, Recovery: math.Inf(1)},
		}, false},
		{"fault at time zero", []Event{
			{Time: 0, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 5},
		}, true},
		{"recovery NaN", []Event{
			{Time: 1, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: math.NaN()},
		}, false},
		{"recovery +Inf", []Event{
			{Time: 1, Kind: NodeCrash, Node: 0, GPU: -1, Slice: -1, Recovery: math.Inf(1)},
		}, false},
		{"overlapping same victim", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 40},
			{Time: 30, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 60},
		}, false},
		{"sequential same victim", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 40},
			{Time: 40, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 60},
		}, true},
		{"overlap different victims ok", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 40},
			{Time: 30, Kind: SliceFault, Node: 0, GPU: 0, Slice: 1, Recovery: 60},
		}, true},
		{"overlap different kinds ok", []Event{
			{Time: 10, Kind: SliceFault, Node: 0, GPU: 0, Slice: 0, Recovery: 40},
			{Time: 30, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 60, Severity: 2},
		}, true},
	}
	for _, tc := range cases {
		err := ValidateScript(tc.script, topo)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid script accepted", tc.name)
		}
	}
}

// Build panics (with the validation error) on an invalid script instead
// of producing undefined platform behaviour.
func TestBuildRejectsInvalidScript(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build accepted an out-of-range script victim")
		}
	}()
	Build(Spec{Script: []Event{
		{Time: 1, Kind: SliceFault, Node: 9, GPU: 0, Slice: 0, Recovery: 5},
	}}, 1, 300, testTopo())
}

func TestScriptPassthrough(t *testing.T) {
	script := []Event{
		{Time: 50, Kind: GPUFault, Node: 1, GPU: 0, Slice: -1, Recovery: 120},
		{Time: 10, Kind: SliceFault, Node: 0, GPU: 1, Slice: 2, Recovery: 40},
	}
	s := Build(Spec{Script: script, SliceRate: 99}, 1, 300, testTopo())
	if s.Len() != 2 {
		t.Fatalf("script not used verbatim: %d events", s.Len())
	}
	if s.Events[0].Time != 10 || s.Events[1].Time != 50 {
		t.Errorf("script not sorted by time: %v", s.Events)
	}
	if !(Spec{Script: script}).Enabled() {
		t.Error("scripted spec reports disabled")
	}
}
