package platform

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/scheduler"
)

// TestObsSpansCoverRun: an instrumented run produces request chains
// with queue spans, slice-track exec spans on registered MIG tracks,
// and lifecycle marks mirrored off the event bus.
func TestObsSpansCoverRun(t *testing.T) {
	rec := obs.NewRecorder()
	p := runMedium(t, Options{Policy: &scheduler.FluidFaaS{}, Obs: rec}, 23)

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
		runMedium(t, Options{Policy: &scheduler.FluidFaaS{}, Obs: rec}, 55)
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
// mid-execution. Spans are recorded upfront with future end times, and
// teardown truncates them. The util ledger records the same work and
// truncates it at the same teardowns, so each slice's ledger load+exec
// seconds equal its surviving span seconds clipped to the run end.
// Transfer is left out: a pipeline's transfer spans overlap its exec,
// and the ledger resolves the overlap.
func TestBusySecondsSpanReconciliation(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	rec, led := obs.NewRecorder(), util.NewLedger()
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 9, Obs: rec, Util: led,
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
	spanBusy := map[string]float64{}
	for sp := range rec.Spans() {
		if sp.Kind == obs.KindSlice && (sp.Cat == "load" || sp.Cat == "exec") {
			work[sp.Track] = append(work[sp.Track], iv{sp.Start, sp.End})
			if end := min(sp.End, p.runEnd); end > sp.Start {
				spanBusy[sp.Track] += end - sp.Start
			}
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
	busy := 0
	for _, sr := range led.Report().Slices {
		got, want := sr.Seconds.BusyExec+sr.Seconds.BusyLoad, spanBusy[sr.ID]
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: ledger load+exec %v s, surviving spans %v s", sr.ID, got, want)
		}
		if want > 0 {
			busy++
		}
	}
	if busy != checked {
		t.Errorf("%d slices carry span work, the ledger reconciled %d", checked, busy)
	}
	t.Logf("%d busy slices reconciled", busy)
}

// TestRequestSpanIsTheRecord: the request envelope span is the
// recorder's one request record. Every collector record has exactly
// one, in record order, with the record's function, request, arrival,
// completion, SLO and outcome; a hedge's losing copy, which the
// collector never records, has none. The rig drops requests on client
// timeouts, rejects them at admission, retries them after faults and
// hedges them off suspect slices.
func TestRequestSpanIsTheRecord(t *testing.T) {
	rec := obs.NewRecorder()
	p := runTransitionRig(t, nil, rec, nil)
	col := p.Collector()
	if col.TimeoutDropCount() == 0 || col.RejectedCount() == 0 || p.Retries() == 0 || p.HedgeCancels() == 0 {
		t.Fatalf("timeout drops %d, rejects %d, retries %d, cancelled hedge losers %d: the rig must exercise all four",
			col.TimeoutDropCount(), col.RejectedCount(), p.Retries(), p.HedgeCancels())
	}
	var envs []obs.Span
	for sp := range rec.Spans() {
		if sp.IsRequest() {
			envs = append(envs, *sp)
		}
	}
	recs := col.Records()
	if len(envs) != len(recs) {
		t.Fatalf("%d request spans for %d records", len(envs), len(recs))
	}
	seen := map[[2]int]bool{}
	for i, r := range recs {
		sp := envs[i]
		if sp.Func != r.Func || sp.Req != r.ID || sp.Start != r.Arrival || sp.End != r.Completion ||
			sp.Declared != r.SLO || sp.Detail != recordOutcome(r) {
			t.Fatalf("record %d: span func %d req %d [%v, %v] slo %v %s, record func %d req %d [%v, %v] slo %v %s",
				i, sp.Func, sp.Req, sp.Start, sp.End, sp.Declared, sp.Detail,
				r.Func, r.ID, r.Arrival, r.Completion, r.SLO, recordOutcome(r))
		}
		k := [2]int{sp.Func, sp.Req}
		if seen[k] {
			t.Fatalf("func %d req %d has two request spans", sp.Func, sp.Req)
		}
		seen[k] = true
	}
}
