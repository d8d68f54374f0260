package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/scheduler"
)

// TestUtilConservation: the conservation invariant — every slice's state
// seconds tile its wall time exactly — must hold with every subsystem
// that can interrupt or reshape work enabled at once: fail-stop and gray
// faults, quarantine with hedged retries, the swap tier, and overload
// control. This is the acceptance criterion of the ledger.
func TestUtilConservation(t *testing.T) {
	led := util.NewLedger()
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 17, Util: led,
		Obs: obs.NewRecorder(),
		Faults: &faults.Spec{
			SliceRate: 0.08, SliceMTTR: 25,
			DegradedRate: 0.08, DegradedMTTR: 40,
			DegradedMinSeverity: 3, DegradedMaxSeverity: 6,
		},
		Gray:     GrayOptions{Enabled: true, Hedge: true},
		Swap:     SwapOptions{Enabled: true},
		Overload: overload.Config{Admission: true},
	})
	tr := flatTrace(specs, 12, 150, 17)
	p.Run(tr, 40)

	if p.FaultsInjected() == 0 {
		t.Fatal("fault schedule injected nothing; the test exercises no teardown")
	}
	if err := led.Check(); err != nil {
		t.Fatal(err)
	}
	rep := led.Report()
	if rep.Duration != 190 {
		t.Fatalf("ledger closed at %v, want 190", rep.Duration)
	}
	for _, sr := range rep.Slices {
		if sr.Wall != rep.Duration {
			t.Fatalf("%s: wall %v != run duration %v (no slice churn in this run)", sr.ID, sr.Wall, rep.Duration)
		}
	}
	if rep.Cluster.BusyExec <= 0 {
		t.Fatal("no busy-exec seconds attributed")
	}
	if rep.Cluster.WarmIdle <= 0 {
		t.Fatal("no warm-idle seconds attributed")
	}
	if math.Abs(rep.Cluster.Sum()-rep.SliceSeconds) > 1e-6*rep.SliceSeconds {
		t.Fatalf("cluster seconds %v != capacity %v", rep.Cluster.Sum(), rep.SliceSeconds)
	}
	if len(rep.Fragmentation) == 0 {
		t.Fatal("no fragmentation samples recorded")
	}
}

// TestUtilStrandedESG: under the monolithic ESG baseline the medium
// variants (18–30.5 GB) cannot use the 1g.10gb slices, so their free
// time must be attributed as stranded; under FluidFaaS's pipelined
// stages the same slices are placeable and no capacity is stranded.
// This is §4's waste argument measured exactly.
func TestUtilStrandedESG(t *testing.T) {
	run := func(pol scheduler.Policy) *util.Report {
		led := util.NewLedger()
		runMedium(t, Options{Policy: pol, Util: led}, 42)
		if err := led.Check(); err != nil {
			t.Fatal(err)
		}
		return led.Report()
	}
	esg := run(&scheduler.ESG{})
	ff := run(&scheduler.FluidFaaS{})
	if esg.Cluster.Stranded <= 0 {
		t.Fatal("ESG run attributed no stranded seconds; 1g slices should strand under monolithic allocation")
	}
	if ff.Cluster.Stranded != 0 {
		t.Fatalf("FluidFaaS run stranded %v seconds; pipelined stages should make every slice type hostable",
			ff.Cluster.Stranded)
	}
	for _, s := range esg.Fragmentation {
		if s.StrandedGPCs > 0 {
			return
		}
	}
	t.Fatal("ESG fragmentation samples never decomposed stranded GPCs")
}

// TestLedgerBaseTracksSliceState: every transition that changes a
// slice's base classification must reach the ledger at that instant.
// The rich run samples utilBase of every slice each second; afterwards
// every non-busy ledger segment covering a sample instant must carry the
// sampled base. Instants that also carry a lifecycle event are skipped:
// a kick at that instant may run after the sample and change the slice.
func TestLedgerBaseTracksSliceState(t *testing.T) {
	for _, swap := range []bool{false, true} {
		specs := specsFor(t, dnn.Small)
		led := util.NewLedger()
		opts := richOptions(nil)
		opts.Swap.Enabled = swap
		opts.Util = led
		type sample struct {
			t    float64
			base map[string]util.State
		}
		var samples []sample
		var p *Platform
		opts.OnSample = func(now float64, cl *cluster.Cluster) {
			s := sample{t: now, base: map[string]util.State{}}
			for _, n := range cl.Nodes {
				for _, g := range n.GPUs {
					for _, sl := range g.Slices {
						s.base[sl.ID()] = p.utilBase(sl)
					}
				}
			}
			samples = append(samples, s)
		}
		p = newRich(specs, opts)
		evAt := map[float64]bool{}
		p.Subscribe(func(e Event) { evAt[e.Time] = true })
		p.Run(flatTrace(specs, 6, 180, 7), 60)

		checked := 0
		for _, sr := range led.Report().Slices {
			for _, s := range samples {
				if evAt[s.t] {
					continue
				}
				for _, seg := range sr.Segments {
					if seg.Start > s.t || s.t >= seg.End {
						continue
					}
					if !seg.State.Busy() {
						checked++
						if want := s.base[sr.ID]; seg.State != want {
							t.Errorf("swap=%v %s at %v: ledger %v, slice %v", swap, sr.ID, s.t, seg.State, want)
						}
					}
					break
				}
			}
		}
		if checked == 0 {
			t.Fatalf("swap=%v: no slice-sample checked", swap)
		}
		t.Logf("swap=%v: %d slice-samples checked", swap, checked)
	}
}

// TestUtilSegmentsLeaveSpanLog: attaching the ledger adds no row to the
// span log, and the Chrome trace draws exactly the ledger's segments
// as "state" events, in report order, each on its slice's track with
// the segment's state, microsecond start and duration.
func TestUtilSegmentsLeaveSpanLog(t *testing.T) {
	logLen := func(r *obs.Recorder) int {
		n := 0
		for range r.Spans() {
			n++
		}
		return n
	}
	bare := obs.NewRecorder()
	runMedium(t, Options{Policy: &scheduler.FluidFaaS{}, Obs: bare}, 5)
	rec, led := obs.NewRecorder(), util.NewLedger()
	runMedium(t, Options{Policy: &scheduler.FluidFaaS{}, Obs: rec, Util: led}, 5)
	if a, b := logLen(bare), logLen(rec); a != b {
		t.Errorf("span log holds %d rows with the ledger, %d without", b, a)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       int64
			Pid, Tid      int
			Args          struct{ Name string }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type place struct{ pid, tid int }
	thread := map[place]string{}
	var got []int // indices of the state events
	for i, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			thread[place{ev.Pid, ev.Tid}] = ev.Args.Name
		case ev.Cat == "state":
			got = append(got, i)
		}
	}
	usec := func(v float64) int64 { return int64(math.Round(v * 1e6)) }
	var want []util.Segment
	var tracks []string
	for _, sr := range led.Report().Slices {
		for _, seg := range sr.Segments {
			want = append(want, seg)
			tracks = append(tracks, sr.ID)
		}
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("trace holds %d state events, want one per ledger segment (%d)", len(got), len(want))
	}
	for k, seg := range want {
		ev := doc.TraceEvents[got[k]]
		if tr := thread[place{ev.Pid, ev.Tid}]; tr != tracks[k] || ev.Ph != "X" ||
			ev.Name != seg.State.String() || ev.Ts != usec(seg.Start) ||
			ev.Dur != usec(seg.End)-usec(seg.Start) {
			t.Fatalf("state event %d = %s %q on %q at %d for %d, want X %q on %q at %d for %d",
				k, ev.Ph, ev.Name, tr, ev.Ts, ev.Dur, seg.State, tracks[k],
				usec(seg.Start), usec(seg.End)-usec(seg.Start))
		}
	}
}
