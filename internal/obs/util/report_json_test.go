package util

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// writeJSONRef is the encoding/json renderer WriteJSON replaced: the
// oracle the streaming writer must match byte for byte, errors included.
func writeJSONRef(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// assertUtilMatchesRef: WriteJSON and the reference agree — same bytes,
// or both fail having written nothing.
func assertUtilMatchesRef(t *testing.T, name string, r *Report) {
	t.Helper()
	var got, want bytes.Buffer
	refErr := writeJSONRef(&want, r)
	err := r.WriteJSON(&got)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
	case err != nil:
		if got.Len() != 0 || want.Len() != 0 {
			t.Fatalf("%s: failed after writing %d bytes (reference %d)", name, got.Len(), want.Len())
		}
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: streaming export differs from reference at byte %d:\n got  …%q\n want …%q",
			name, i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// fuzzReport builds a report from fuzz inputs: id and typ label every
// slice, a and b seed every float, and the bits of shape pick nil
// versus empty versus filled for each list (and a nil report).
func fuzzReport(id, typ string, a, b float64, shape uint) *Report {
	if shape&1 != 0 {
		return nil
	}
	tot := func(k float64) Totals {
		return Totals{a, b, k * a, -b, a * b, k, b - a, 0}
	}
	r := &Report{Duration: a, SliceSeconds: b, GPCSeconds: a + b, Cluster: tot(1), ClusterGPC: tot(4)}
	pick := func(bit uint, n int) int { // -1 = nil, 0 = empty, n = filled
		switch (shape >> bit) & 3 {
		case 0:
			return -1
		case 1:
			return 0
		}
		return n
	}
	if n := pick(1, 2); n >= 0 {
		r.Nodes = make([]NodeReport, n)
		for i := range r.Nodes {
			r.Nodes[i] = NodeReport{Node: i, GPCs: 7 * i, Seconds: tot(float64(i)), GPCSeconds: tot(-1)}
		}
	}
	if n := pick(3, 3); n >= 0 {
		r.GPUs = make([]GPUReport, n)
		for i := range r.GPUs {
			r.GPUs[i] = GPUReport{Node: i / 2, GPU: i, GPCs: i, Seconds: tot(0.5), GPCSeconds: tot(2)}
		}
	}
	if n := pick(5, 3); n >= 0 {
		r.Slices = make([]SliceReport, n)
		for i := range r.Slices {
			sr := SliceReport{ID: fmt.Sprintf("%s#%d", id, i), Node: i, GPU: -i, Type: typ,
				GPCs: i + 1, MemGB: b, Wall: a, Seconds: tot(float64(i))}
			if n := pick(7+2*uint(i%2), 4); n >= 0 {
				sr.Segments = make([]Segment, n)
				for j := range sr.Segments {
					// State(NumStates+j) covers names outside the table.
					sr.Segments[j] = Segment{State: State(j * 3 % (NumStates + 2)), Start: a * float64(j), End: b + float64(j)}
				}
			}
			r.Slices[i] = sr
		}
	}
	if n := pick(11, 2); n >= 0 {
		r.Fragmentation = make([]FragSample, n)
		for i := range r.Fragmentation {
			r.Fragmentation[i] = FragSample{Time: a, Index: b, FreeGPCs: i, StrandedGPCs: -i, StrandedGB: a / 3, LargestPlaceableGPCs: 7}
		}
	}
	return r
}

// shapeOf packs one choice per list of fuzzReport, in its order (nodes,
// GPUs, slices, even- and odd-slice segments, fragmentation): 0 nil, 1
// empty, 2 filled.
func shapeOf(lists ...uint) uint {
	var s uint
	for i, l := range lists {
		s |= l << (1 + 2*uint(i))
	}
	return s
}

// FuzzUtilReportJSON: the streaming WriteJSON is byte-identical to the
// encoding/json reference, and fails exactly when it does (NaN or
// infinite floats), writing nothing.
func FuzzUtilReportJSON(f *testing.F) {
	strs := []string{"gpu0/4g.40gb#0", "héllo ✓", "<a&b>", "\u2028x\u2029", "bad\xff\xfeutf8", "cut\xe2\x82",
		`say "hi" C:\x`, "tab\tnl\nbell\x07\x7f"}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, -2.5e-9, 123.456, 9.99e20}
	shapes := []uint{
		1,                         // nil report
		shapeOf(0, 0, 0, 0, 0, 0), // every list nil
		shapeOf(1, 1, 1, 1, 1, 1), // every list empty
		shapeOf(2, 2, 2, 2, 2, 2), // every list filled
		shapeOf(2, 2, 2, 0, 1, 0), // nil and empty segments side by side
		shapeOf(0, 1, 2, 2, 2, 1), // a mix
	}
	for i, s := range strs {
		f.Add(s, strs[(i+1)%len(strs)], floats[i%len(floats)], floats[(i+3)%len(floats)], shapes[i%len(shapes)])
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("a", "b", v, 1.0, shapes[3])
		f.Add("a", "b", 1.0, v, shapes[2])
	}
	f.Fuzz(func(t *testing.T, id, typ string, a, b float64, shape uint) {
		assertUtilMatchesRef(t, "fuzz", fuzzReport(id, typ, a, b, shape))
	})
}

// TestUtilJSONMatchesReference: a ledger-built report, the empty and the
// nil report render as the reference does.
func TestUtilJSONMatchesReference(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.Register("b", 0, 1, "2g.20gb", 2, 20, WarmIdle)
	l.Register("c<&>", 1, 0, "7g.80gb", 7, 80, Stranded)
	l.Busy("a", BusyExec, 1, 4)
	l.Busy("b", BusyLoad, 2, 3)
	l.Busy("b", BusyTransfer, 2.5, 3.25)
	l.SetBase("a", 6, WarmIdle)
	l.SetBase("c<&>", 1e-7, Quarantined)
	l.AddFragSample(FragSample{Time: 5, Index: 0.25, FreeGPCs: 4, StrandedGPCs: 1, StrandedGB: 10, LargestPlaceableGPCs: 2})
	l.Close(10)
	assertUtilMatchesRef(t, "ledger", l.Report())
	assertUtilMatchesRef(t, "empty", &Report{})
	assertUtilMatchesRef(t, "nil", nil)
}

// TestUtilJSONNonFinite: a NaN or infinity in any float of the report —
// totals, roll-ups, slice fields, segments, fragmentation samples —
// fails the export before a byte is written, as the reference does.
func TestUtilJSONNonFinite(t *testing.T) {
	sites := map[string]func(r *Report, v float64){
		"duration":         func(r *Report, v float64) { r.Duration = v },
		"slice_seconds":    func(r *Report, v float64) { r.SliceSeconds = v },
		"gpc_seconds":      func(r *Report, v float64) { r.GPCSeconds = v },
		"cluster":          func(r *Report, v float64) { r.Cluster.Stranded = v },
		"cluster_gpc":      func(r *Report, v float64) { r.ClusterGPC.Reconfiguring = v },
		"node seconds":     func(r *Report, v float64) { r.Nodes[1].Seconds.WarmIdle = v },
		"node gpc":         func(r *Report, v float64) { r.Nodes[0].GPCSeconds.BusyExec = v },
		"gpu seconds":      func(r *Report, v float64) { r.GPUs[2].Seconds.ColdIdle = v },
		"gpu gpc":          func(r *Report, v float64) { r.GPUs[0].GPCSeconds.BusyLoad = v },
		"slice mem_gb":     func(r *Report, v float64) { r.Slices[0].MemGB = v },
		"slice wall":       func(r *Report, v float64) { r.Slices[1].Wall = v },
		"slice seconds":    func(r *Report, v float64) { r.Slices[2].Seconds.Quarantined = v },
		"segment start":    func(r *Report, v float64) { r.Slices[1].Segments[3].Start = v },
		"segment end":      func(r *Report, v float64) { r.Slices[2].Segments[0].End = v },
		"frag time":        func(r *Report, v float64) { r.Fragmentation[0].Time = v },
		"frag index":       func(r *Report, v float64) { r.Fragmentation[1].Index = v },
		"frag stranded_gb": func(r *Report, v float64) { r.Fragmentation[1].StrandedGB = v },
	}
	for name, set := range sites {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := fuzzReport("s", "1g.10gb", 1.5, 2, shapeOf(2, 2, 2, 2, 2, 2))
			set(r, v)
			var got bytes.Buffer
			if err := r.WriteJSON(&got); err == nil || got.Len() != 0 {
				t.Errorf("%s = %v: err=%v after %d bytes, want an error and no output", name, v, err, got.Len())
			}
			assertUtilMatchesRef(t, fmt.Sprintf("%s = %v", name, v), r)
		}
	}
}

// TestUtilJSONAllocs: the export allocates a constant amount — a report
// with 10k segments costs no more allocations than one with 10.
func TestUtilJSONAllocs(t *testing.T) {
	build := func(segs int) *Report {
		l := NewLedger()
		reg(l, "a")
		l.Register("b", 0, 1, "2g.20gb", 2, 20, WarmIdle)
		for i := 0; i < segs/2; i++ {
			t0 := float64(i)
			l.Busy("a", BusyExec, t0, t0+0.5)
			l.Busy("b", BusyLoad, t0+0.25, t0+0.75)
			l.AddFragSample(FragSample{Time: t0, Index: 0.5, FreeGPCs: 3})
		}
		l.Close(float64(segs))
		return l.Report()
	}
	measure := func(r *Report) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(build(10)), measure(build(10000))
	if large > small || large > 10 {
		t.Errorf("allocs: %v for 10k segments vs %v for 10; want a constant, independent of size", large, small)
	}
}
