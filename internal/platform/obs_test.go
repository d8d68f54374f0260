package platform

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/scheduler"
)

// runWithObs runs one platform simulation, optionally instrumented.
func runWithObs(t *testing.T, rec *obs.Recorder, seed int64) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	p := New(cl, specs, Options{Policy: &scheduler.FluidFaaS{}, Seed: seed, Obs: rec})
	tr := flatTrace(specs, 8, 120, seed)
	p.Run(tr, 40)
	return p
}

// TestObsZeroCostIdentity: attaching a recorder must not change a
// single request outcome or platform counter — the observability layer
// observes, it never participates. This is the "disabled means
// bit-for-bit identical" acceptance criterion run in reverse.
func TestObsZeroCostIdentity(t *testing.T) {
	plain := runWithObs(t, nil, 77)
	traced := runWithObs(t, obs.NewRecorder(), 77)

	a, b := plain.Collector().Records(), traced.Collector().Records()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("request records diverge with observability attached: %d vs %d records", len(a), len(b))
	}
	if plain.Launched() != traced.Launched() ||
		plain.Evictions() != traced.Evictions() ||
		plain.Migrations() != traced.Migrations() ||
		plain.TotalEvents() != traced.TotalEvents() {
		t.Fatal("platform counters diverge with observability attached")
	}
	if !reflect.DeepEqual(plain.UtilGPCs, traced.UtilGPCs) {
		t.Fatal("utilisation timeline diverges with observability attached")
	}
}

// TestObsSpansCoverRun: an instrumented run produces request chains
// with queue spans, slice-track exec spans on registered MIG tracks,
// and lifecycle marks mirrored off the event bus.
func TestObsSpansCoverRun(t *testing.T) {
	rec := obs.NewRecorder()
	p := runWithObs(t, rec, 23)

	tracks := map[string]bool{}
	for _, tr := range rec.Tracks() {
		tracks[tr.Name] = true
	}
	var nSlices int
	for _, node := range p.Cluster().Nodes {
		for _, g := range node.GPUs {
			nSlices += len(g.Slices)
		}
	}
	if len(tracks) != nSlices {
		t.Fatalf("registered %d tracks, want one per MIG slice (%d)", len(tracks), nSlices)
	}

	kinds := map[string]int{}
	for sp := range rec.Spans() {
		kinds[sp.Cat]++
		if sp.End < sp.Start {
			t.Fatalf("span %+v runs backwards", sp)
		}
		if sp.Kind == obs.KindSlice && !tracks[sp.Track] {
			t.Fatalf("slice span on unregistered track %q", sp.Track)
		}
	}
	for _, cat := range []string{"request", "queue", "exec", "load", "event"} {
		if kinds[cat] == 0 {
			t.Errorf("no %q spans recorded", cat)
		}
	}
	// Every finalised request has exactly one request chain span.
	if kinds["request"] != p.Collector().Len() {
		t.Errorf("request spans = %d, want one per record (%d)",
			kinds["request"], p.Collector().Len())
	}
	// Lifecycle marks mirror the event bus losslessly, and the recorder
	// logged load/exec work on the slice tracks.
	marks, busy := map[string]int{}, 0.0
	for sp := range rec.Spans() {
		switch {
		case sp.Kind == obs.KindMark:
			marks[sp.Name]++
		case sp.Kind == obs.KindSlice && (sp.Cat == "load" || sp.Cat == "exec"):
			busy += sp.End - sp.Start
		}
	}
	for k, n := range p.CountEvents() {
		if marks[k.String()] != n {
			t.Errorf("%s marks = %d, events = %d", k, marks[k.String()], n)
		}
	}
	if rec.Duration() <= 0 {
		t.Error("run duration not recorded")
	}
	if busy <= 0 {
		t.Error("no busy time recorded on any slice track")
	}
}

// TestObsExportsDeterministic: same seed, two runs ⇒ byte-identical
// Chrome trace and Prometheus exports.
func TestObsExportsDeterministic(t *testing.T) {
	var traces, proms [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rec := obs.NewRecorder()
		runWithObs(t, rec, 55)
		if err := obs.WriteChromeTrace(&traces[i], rec); err != nil {
			t.Fatal(err)
		}
		if err := obs.WritePrometheus(&proms[i], rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Error("Chrome trace export differs across same-seed runs")
	}
	if !bytes.Equal(proms[0].Bytes(), proms[1].Bytes()) {
		t.Error("Prometheus export differs across same-seed runs")
	}
}

// TestObsRetryMarks: a faulty run records retry hops on the request
// chains it re-routed.
func TestObsRetryMarks(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	rec := obs.NewRecorder()
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 9, Obs: rec,
		Faults: &faults.Spec{SliceRate: 0.1, SliceMTTR: 30},
	})
	tr := flatTrace(specs, 8, 150, 9)
	p.Run(tr, 40)
	if p.Retries() == 0 {
		t.Skip("fault schedule produced no retries at this seed")
	}
	marks := 0
	for sp := range rec.Spans() {
		if sp.Kind == obs.KindAsyncMark && sp.Cat == "retry" {
			marks++
			if sp.Req < 0 || sp.Detail == "" {
				t.Fatalf("retry mark missing identity or reason: %+v", sp)
			}
		}
	}
	if marks != p.Retries() {
		t.Errorf("retry marks = %d, platform retries = %d", marks, p.Retries())
	}
}

// TestBusySecondsSpanReconciliation: the exported busy seconds are the
// surviving load+exec span durations of each track, so those spans must
// never overlap (one slice runs one thing at a time with MaxBatch=1),
// even when hedged losers are cancelled and quarantine tears work down
// mid-execution. Spans are recorded upfront with future end times;
// CancelSliceWork truncates them on teardown.
func TestBusySecondsSpanReconciliation(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	rec := obs.NewRecorder()
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 9, Obs: rec,
		Faults: &faults.Spec{
			SliceRate: 0.1, SliceMTTR: 30,
			DegradedRate: 0.08, DegradedMTTR: 40,
			DegradedMinSeverity: 3, DegradedMaxSeverity: 6,
		},
		Gray: GrayOptions{Enabled: true, Hedge: true},
	})
	tr := flatTrace(specs, 8, 150, 9)
	p.Run(tr, 40)
	if p.FaultsInjected() == 0 {
		t.Fatal("fault schedule injected nothing; the test exercises no cancellation")
	}

	type iv struct{ start, end float64 }
	work := map[string][]iv{}
	for sp := range rec.Spans() {
		if sp.Kind == obs.KindSlice && (sp.Cat == "load" || sp.Cat == "exec") {
			work[sp.Track] = append(work[sp.Track], iv{sp.Start, sp.End})
		}
	}
	checked := 0
	for _, trk := range rec.Tracks() {
		ivs := work[trk.Name]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-1e-9 {
				t.Errorf("%s: overlapping work spans [%v,%v) and [%v,%v)",
					trk.Name, ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
		if len(ivs) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no track accumulated any work to reconcile")
	}
}
