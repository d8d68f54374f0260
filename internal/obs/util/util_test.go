package util

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// reg registers a 1-GPC test slice with a cold-idle base at t=0.
func reg(l *Ledger, id string) {
	l.Register(id, 0, 0, "1g.10gb", 1, 10, ColdIdle)
}

func segEq(t *testing.T, got []Segment, want []Segment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestNilLedger: every method on the nil sink is a safe no-op, and the
// nil report is nil.
func TestNilLedger(t *testing.T) {
	var l *Ledger
	reg(l, "a")
	l.SetBase("a", 1, WarmIdle)
	l.Busy("a", BusyExec, 1, 2)
	l.CancelBusy("a", 1.5)
	l.AddFragSample(FragSample{Time: 1})
	l.Close(10)
	if l.Report() != nil {
		t.Fatal("nil ledger produced a report")
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestResolvePriority: overlapping exec/load/transfer claims resolve in
// priority order over the base timeline.
func TestResolvePriority(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.SetBase("a", 1, WarmIdle)
	l.Busy("a", BusyTransfer, 2, 8)
	l.Busy("a", BusyLoad, 3, 7)
	l.Busy("a", BusyExec, 4, 6)
	l.Close(10)
	segEq(t, l.Report().Slices[0].Segments, []Segment{
		{ColdIdle, 0, 1}, {WarmIdle, 1, 2},
		{BusyTransfer, 2, 3}, {BusyLoad, 3, 4}, {BusyExec, 4, 6},
		{BusyLoad, 6, 7}, {BusyTransfer, 7, 8}, {WarmIdle, 8, 10},
	})
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthIntervals: zero- and negative-length busy claims carry
// no slice-seconds and are dropped, leaving the base timeline intact.
func TestZeroLengthIntervals(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.Busy("a", BusyExec, 5, 5)
	l.Busy("a", BusyLoad, 6, 4)
	l.Close(10)
	segEq(t, l.Report().Slices[0].Segments, []Segment{{ColdIdle, 0, 10}})
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSameTimestampTransitions: a second base transition at the same
// instant wins (teardowns collapse several flips into one timestamp),
// including merging back into the preceding point when the flip undoes
// itself.
func TestSameTimestampTransitions(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.SetBase("a", 3, WarmIdle)
	l.SetBase("a", 3, Quarantined) // same-instant override
	l.SetBase("a", 5, WarmIdle)
	l.SetBase("a", 5, Quarantined) // override that undoes the flip
	l.Close(8)
	segEq(t, l.Report().Slices[0].Segments, []Segment{
		{ColdIdle, 0, 3}, {Quarantined, 3, 8},
	})
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAtEnd: a busy claim recorded upfront with an end time past the
// run (the platform records spans with future ends) is clipped to the
// close boundary, and the base timeline runs to the end.
func TestOpenAtEnd(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.SetBase("a", 1, WarmIdle)
	l.Busy("a", BusyExec, 8, 25) // ends past the run
	l.Close(10)
	rep := l.Report()
	segEq(t, rep.Slices[0].Segments, []Segment{
		{ColdIdle, 0, 1}, {WarmIdle, 1, 8}, {BusyExec, 8, 10},
	})
	if got := rep.Slices[0].Seconds.BusyExec; got != 2 {
		t.Fatalf("clipped exec seconds = %v, want 2", got)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelBusy: truncation removes claims past the cut and clips the
// spanning one, exactly like the span recorder's CancelSliceWork.
func TestCancelBusy(t *testing.T) {
	l := NewLedger()
	reg(l, "a")
	l.Busy("a", BusyLoad, 1, 3)
	l.Busy("a", BusyExec, 3, 9)  // spans the cut: clipped
	l.Busy("a", BusyExec, 7, 12) // starts after the cut: removed
	l.CancelBusy("a", 5)
	l.Close(10)
	segEq(t, l.Report().Slices[0].Segments, []Segment{
		{ColdIdle, 0, 1}, {BusyLoad, 1, 3}, {BusyExec, 3, 5}, {ColdIdle, 5, 10},
	})
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRollups: GPU/node/cluster aggregation weights GPC-seconds by the
// slice size and sums plain seconds unweighted.
func TestRollups(t *testing.T) {
	l := NewLedger()
	l.Register("g0/4g#0", 0, 0, "4g.40gb", 4, 40, ColdIdle)
	l.Register("g1/1g#0", 0, 1, "1g.10gb", 1, 10, Stranded)
	l.Busy("g0/4g#0", BusyExec, 0, 10)
	l.Close(10)
	rep := l.Report()
	if rep.SliceSeconds != 20 || rep.GPCSeconds != 50 {
		t.Fatalf("capacity = %v slice-s / %v gpc-s, want 20 / 50", rep.SliceSeconds, rep.GPCSeconds)
	}
	if rep.Cluster.BusyExec != 10 || rep.ClusterGPC.BusyExec != 40 {
		t.Fatalf("cluster exec = %v / %v gpc, want 10 / 40", rep.Cluster.BusyExec, rep.ClusterGPC.BusyExec)
	}
	if rep.Cluster.Stranded != 10 || rep.ClusterGPC.Stranded != 10 {
		t.Fatalf("cluster stranded = %v / %v gpc, want 10 / 10", rep.Cluster.Stranded, rep.ClusterGPC.Stranded)
	}
	if len(rep.Nodes) != 1 || len(rep.GPUs) != 2 {
		t.Fatalf("rollup shape: %d nodes, %d gpus", len(rep.Nodes), len(rep.GPUs))
	}
	if got := rep.Nodes[0].GPCSeconds.Sum(); math.Abs(got-50) > 1e-12 {
		t.Fatalf("node gpc-seconds = %v, want 50", got)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicJSON: identical ledgers produce byte-identical
// reports (the CI determinism diff depends on this).
func TestDeterministicJSON(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger()
		reg(l, "a")
		l.Register("b", 0, 0, "2g.20gb", 2, 20, WarmIdle)
		l.Busy("a", BusyExec, 1, 4)
		l.Busy("b", BusyLoad, 2, 3)
		l.SetBase("a", 6, WarmIdle)
		l.AddFragSample(FragSample{Time: 5, Index: 0.25, FreeGPCs: 4, StrandedGPCs: 1, StrandedGB: 10, LargestPlaceableGPCs: 2})
		l.Close(10)
		return l
	}
	var a, b bytes.Buffer
	if err := build().Report().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical ledgers produced different JSON")
	}
	for _, want := range []string{`"busy-exec"`, `"cluster"`, `"stranded_gpcs"`} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("report JSON lacks %s", want)
		}
	}
}

// TestHeatmap: the text heatmap renders every slice row and the
// GPC-weighted waste summary.
func TestHeatmap(t *testing.T) {
	l := NewLedger()
	l.Register("g0/4g#0", 0, 0, "4g.40gb", 4, 40, ColdIdle)
	l.Register("g0/1g#1", 0, 0, "1g.10gb", 1, 10, Stranded)
	l.Busy("g0/4g#0", BusyExec, 0, 5)
	l.AddFragSample(FragSample{Time: 9, Index: 0.2, FreeGPCs: 5, StrandedGPCs: 1, StrandedGB: 10})
	l.Close(10)
	var b bytes.Buffer
	if err := l.Report().WriteHeatmap(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"node0", "gpu0", "4g.40gb#0", "1g.10gb#1",
		"where did the GPU-seconds go", "stranded", "fragmentation (last sample"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heatmap lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "|EEEEEEEEEEEEEEEEEEEEWWWWWWWWWWWWWWWWWWWW|") &&
		!strings.Contains(out, "|EEEEEEEEEEEEEEEEEEEE....................|") {
		t.Fatalf("4g bar not half exec:\n%s", out)
	}
}

// TestPanics: the ledger turns caller bugs into panics rather than
// silently corrupting conservation.
func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(l *Ledger)
	}{
		{"register live", func(l *Ledger) { reg(l, "a"); reg(l, "a") }},
		{"busy base state", func(l *Ledger) { reg(l, "a"); l.Busy("a", WarmIdle, 1, 2) }},
		{"setbase busy state", func(l *Ledger) { reg(l, "a"); l.SetBase("a", 1, BusyExec) }},
		{"setbase backwards", func(l *Ledger) { reg(l, "a"); l.SetBase("a", 5, WarmIdle); l.SetBase("a", 3, ColdIdle) }},
		{"unregistered", func(l *Ledger) { l.SetBase("ghost", 1, WarmIdle) }},
		{"frag out of order", func(l *Ledger) {
			l.AddFragSample(FragSample{Time: 5})
			l.AddFragSample(FragSample{Time: 4})
		}},
		{"register after close", func(l *Ledger) { l.Close(1); reg(l, "a") }},
		{"report before close", func(l *Ledger) { reg(l, "a"); l.Busy("a", BusyExec, 1, 2); l.Report() }},
		{"check before close", func(l *Ledger) { reg(l, "a"); l.Check() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.f(NewLedger())
		})
	}
}

// TestCloseAllocsIndependentOfClaims: Close sizes its sweep buffers up
// front, so closing a slice with 1000 claims allocates as many times as
// closing one with 10.
func TestCloseAllocsIndependentOfClaims(t *testing.T) {
	const runs = 20
	closeAllocs := func(claims int) float64 {
		ledgers := make([]*Ledger, runs+1) // AllocsPerRun adds a warm-up call
		for i := range ledgers {
			l := NewLedger()
			reg(l, "a")
			for c := range claims {
				t0 := float64(c)
				l.Busy("a", States[c%3], t0, t0+1.5) // overlapping, tied ends
				if c%4 == 0 {
					l.SetBase("a", t0+0.25, WarmIdle)
				} else if c%4 == 2 {
					l.SetBase("a", t0+0.25, ColdIdle)
				}
			}
			ledgers[i] = l
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			ledgers[next].Close(float64(claims + 1))
			next++
		})
	}
	few, many := closeAllocs(10), closeAllocs(1000)
	if few != many {
		t.Errorf("closing a slice allocates %v times with 10 claims, %v with 1000", few, many)
	}
}
