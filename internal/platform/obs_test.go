package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/scheduler"
)

// TestObsSpansCoverRun: an instrumented run produces request chains
// with queue spans, slice-track exec spans on registered MIG tracks,
// and lifecycle marks mirrored off the event bus. (The requests
// themselves are the collector's records, which the recorder reads:
// TestReadersSeeEveryRecordOnce.)
func TestObsSpansCoverRun(t *testing.T) {
	rec := obs.NewRecorder()
	p := runMedium(t, Options{Policy: &scheduler.FluidFaaS{}, Obs: rec}, 23)

	tracks := map[string]bool{}
	for _, tr := range rec.Tracks() {
		tracks[tr.Name] = true
	}
	var nSlices int
	for _, node := range p.cl.Nodes {
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
	for _, cat := range []string{"queue", "exec", "load", "event"} {
		if kinds[cat] == 0 {
			t.Errorf("no %q spans recorded", cat)
		}
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
	for k, n := range p.tally {
		if kind := EventKind(k).String(); marks[kind] != n {
			t.Errorf("%s marks = %d, events = %d", kind, marks[kind], n)
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

// TestReadersSeeEveryRecordOnce: the collector's records are the one
// request store, and every reader of the recorder sees each record
// exactly once: the Prometheus request counts per (function, outcome),
// the Chrome trace's request envelopes (with the record's id and
// arrival) and the critical paths. A hedge's losing copy, which shares
// its winner's function and id but is never recorded, shows up in none
// of them. The rig drops requests on client timeouts, rejects them at
// admission, retries them after faults and hedges them off suspect
// slices.
func TestReadersSeeEveryRecordOnce(t *testing.T) {
	rec := obs.NewRecorder()
	p := runTransitionRig(t, nil, rec, nil)
	col := p.Collector()
	if col.TimeoutDropCount() == 0 || col.RejectedCount() == 0 || p.Retries() == 0 || p.hedgeCancels == 0 {
		t.Fatalf("timeout drops %d, rejects %d, retries %d, cancelled hedge losers %d: the rig must exercise all four",
			col.TimeoutDropCount(), col.RejectedCount(), p.Retries(), p.hedgeCancels)
	}
	type key struct{ fn, id int }
	records := map[key]metrics.RequestRecord{}
	wantCounts := map[[2]string]int{}
	for _, r := range col.Records() {
		k := key{r.Func, r.ID}
		if _, dup := records[k]; dup {
			t.Fatalf("func %d req %d recorded twice", r.Func, r.ID)
		}
		records[k] = r
		wantCounts[[2]string{p.funcs[r.Func].spec.Name, r.Outcome()}]++
	}

	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, rec); err != nil {
		t.Fatal(err)
	}
	total := regexp.MustCompile(`^fluidfaas_requests_total\{func="([^"]*)",outcome="([^"]*)"\} (\d+)$`)
	gotCounts := map[[2]string]int{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if m := total.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[3])
			gotCounts[[2]string{m[1], m[2]}] = n
		}
	}
	if !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Errorf("fluidfaas_requests_total = %v, want the records' %v", gotCounts, wantCounts)
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat, Ph, ID string
			Ts          int64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	envelopes := map[key]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "request" || ev.Ph != "b" {
			continue
		}
		var k key
		if _, err := fmt.Sscanf(ev.ID, "f%d-r%d", &k.fn, &k.id); err != nil {
			t.Fatalf("request envelope id %q: %v", ev.ID, err)
		}
		r, ok := records[k]
		if !ok {
			t.Fatalf("request envelope %s has no record", ev.ID)
		}
		if want := int64(math.Round(r.Arrival * 1e6)); ev.Ts != want {
			t.Errorf("request envelope %s starts at %d us, its record arrives at %d us", ev.ID, ev.Ts, want)
		}
		envelopes[k]++
	}
	paths := map[key]int{}
	for _, pa := range analytics.Reconstruct(rec) {
		paths[key{pa.Func, pa.Req}]++
	}
	for k := range records {
		if envelopes[k] != 1 || paths[k] != 1 {
			t.Errorf("func %d req %d: %d trace envelopes and %d critical paths, want 1 and 1",
				k.fn, k.id, envelopes[k], paths[k])
		}
	}
	if len(envelopes) != len(records) || len(paths) != len(records) {
		t.Errorf("%d enveloped and %d reconstructed requests for %d records",
			len(envelopes), len(paths), len(records))
	}
}
