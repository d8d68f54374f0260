package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/metrics"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/overload"
	"fluidfaas/internal/scheduler"
)

// runMixed runs an instrumented simulation through the adversarial mix:
// hardware faults (retried and failed requests), overload control
// (rejections, brownout), pipeline migration, and heavy
// load (drops). This is the span-chain torture chamber the critical-
// path reconstruction has to survive.
func runMixed(t *testing.T, rec *obs.Recorder, seed int64) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	cl := cluster.New(cluster.DefaultSpec())
	p := New(cl, specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: seed, Obs: rec,
		Faults:   &faults.Spec{SliceRate: 0.08, SliceMTTR: 30},
		Overload: overload.Config{Admission: true},
	})
	tr := flatTrace(specs, 12, 150, seed)
	p.Run(tr, 40)
	return p
}

// spanBreakdown sums each request chain's exec, load and transfer spans
// from the span log, skipping spans that start before the chain's last
// retry mark (a torn-down attempt's work). Both copies of a hedged
// request share one chain, so its sum counts them both.
func spanBreakdown(rec *obs.Recorder) map[[2]int]metrics.RequestRecord {
	lastRetry := map[[2]int]float64{}
	for sp := range rec.Spans() {
		if sp.Req >= 0 && sp.Kind == obs.KindAsyncMark && sp.Cat == "retry" {
			k := [2]int{sp.Func, sp.Req}
			if t, ok := lastRetry[k]; !ok || sp.Start > t {
				lastRetry[k] = sp.Start
			}
		}
	}
	sums := map[[2]int]metrics.RequestRecord{}
	for sp := range rec.Spans() {
		k := [2]int{sp.Func, sp.Req}
		if t, ok := lastRetry[k]; sp.Req < 0 || ok && sp.Start < t {
			continue
		}
		s := sums[k]
		switch sp.Cat {
		case "exec":
			s.Exec += sp.End - sp.Start
		case "load":
			s.Load += sp.End - sp.Start
		case "transfer":
			s.Transfer += sp.End - sp.Start
		default:
			continue
		}
		sums[k] = s
	}
	return sums
}

// TestAnalyticsComponentSum: in the mixed run every finalised request's
// reconstructed components sum exactly to its end-to-end latency, and
// the platform's own breakdown agrees with the trace: each served
// request's exec, load and transfer spans sum to its record's values.
func TestAnalyticsComponentSum(t *testing.T) {
	rec := obs.NewRecorder()
	p := runMixed(t, rec, 42)
	if p.Hedges() != 0 {
		t.Fatal("mixed run hedged; the span sums below assume one copy per request")
	}

	records := p.Collector().Records()
	paths := analytics.Reconstruct(rec)
	if len(paths) != len(records) {
		t.Fatalf("reconstructed %d paths, collector has %d records", len(paths), len(records))
	}
	const tol = 1e-9
	for _, pa := range paths {
		c := pa.Comp
		if sum := c.Queue + c.Load + c.Exec + c.Transfer + c.Retry; math.Abs(sum-pa.Latency()) > tol {
			t.Errorf("req %d/%d (%s): components sum %v != latency %v",
				pa.Func, pa.Req, pa.Outcome, sum, pa.Latency())
		}
	}

	spans := spanBreakdown(rec)
	retried, served := 0, 0
	for _, r := range records {
		if r.Retries > 0 {
			retried++
		}
		if r.Dropped {
			continue
		}
		served++
		s := spans[[2]int{r.Func, r.ID}]
		if math.Abs(s.Exec-r.Exec) > tol || math.Abs(s.Load-r.Load) > tol ||
			math.Abs(s.Transfer-r.Transfer) > tol {
			t.Errorf("req %d/%d: spans sum to exec=%v load=%v transfer=%v, record has exec=%v load=%v transfer=%v",
				r.Func, r.ID, s.Exec, s.Load, s.Transfer, r.Exec, r.Load, r.Transfer)
		}
	}
	if served == 0 {
		t.Fatal("mixed run served nothing; the invariant was never exercised")
	}
	if retried == 0 && p.Retries() > 0 {
		t.Error("platform retried requests but no record shows retries")
	}
}

// TestAnalyticsHedgedCountedOnce: both copies of a hedged request share
// its request ID, yet its critical path carries only the record's
// breakdown — the winning copy's work, not the sum of both copies'.
func TestAnalyticsHedgedCountedOnce(t *testing.T) {
	specs := specsFor(t, dnn.Medium)
	rec := obs.NewRecorder()
	p := New(cluster.New(cluster.DefaultSpec()), specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 9, Obs: rec,
		Faults: &faults.Spec{
			DegradedRate: 0.08, DegradedMTTR: 40,
			DegradedMinSeverity: 3, DegradedMaxSeverity: 6,
		},
		Gray: GrayOptions{Enabled: true, Hedge: true},
	})
	p.Run(flatTrace(specs, 8, 150, 9), 40)
	if p.Hedges() == 0 {
		t.Fatal("run spawned no hedge; the test exercises nothing")
	}

	records := map[[2]int]metrics.RequestRecord{}
	for _, r := range p.Collector().Records() {
		records[[2]int{r.Func, r.ID}] = r
	}
	const tol = 1e-9
	served := 0
	for _, pa := range analytics.Reconstruct(rec) {
		if pa.Outcome != "served" {
			continue
		}
		served++
		r := records[[2]int{pa.Func, pa.Req}]
		if math.Abs(pa.Comp.Exec-r.Exec) > tol || math.Abs(pa.Comp.Load-r.Load) > tol ||
			math.Abs(pa.Comp.Transfer-r.Transfer) > tol {
			t.Errorf("req %d/%d: path exec=%v load=%v transfer=%v, record exec=%v load=%v transfer=%v",
				pa.Func, pa.Req, pa.Comp.Exec, pa.Comp.Load, pa.Comp.Transfer, r.Exec, r.Load, r.Transfer)
		}
	}
	if served == 0 {
		t.Fatal("run served nothing")
	}
}

// TestAnalyticsPurity: attaching analytics changes nothing — the
// instrumented run's records and counters are identical to the bare
// run's — and the analytics snapshot itself is byte-identical across
// same-seed runs.
func TestAnalyticsPurity(t *testing.T) {
	plain := runMixed(t, nil, 7)

	var reports [2]bytes.Buffer
	var traced *Platform
	for i := 0; i < 2; i++ {
		rec := obs.NewRecorder()
		traced = runMixed(t, rec, 7)
		rp := analytics.Analyze(analytics.Config{}, rec)
		if err := rp.WriteJSON(&reports[i]); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(plain.Collector().Records(), traced.Collector().Records()) {
		t.Fatal("request records diverge with analytics attached")
	}
	if plain.Launched() != traced.Launched() ||
		plain.Evictions() != traced.Evictions() ||
		plain.Migrations() != traced.Migrations() ||
		plain.Retries() != traced.Retries() ||
		plain.Rejected() != traced.Rejected() ||
		plain.TotalEvents() != traced.TotalEvents() {
		t.Fatal("platform counters diverge with analytics attached")
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Error("analytics reports differ across same-seed runs")
	}
}

// TestSnapshotDeterministic: the introspection snapshot marshals
// byte-identically across same-seed runs, repeated marshalling does not
// perturb it, and its shape covers the cluster.
func TestSnapshotDeterministic(t *testing.T) {
	var snaps [2][]byte
	var p *Platform
	for i := 0; i < 2; i++ {
		p = runMixed(t, nil, 13)
		b, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("snapshots differ across same-seed runs")
	}
	again, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snaps[1], again) {
		t.Fatal("taking a snapshot twice produced different documents")
	}

	s := p.Snapshot()
	var nSlices int
	for _, node := range p.cl.Nodes {
		for _, g := range node.GPUs {
			nSlices += len(g.Slices)
		}
	}
	if len(s.Slices) != nSlices {
		t.Errorf("snapshot has %d slices, cluster has %d", len(s.Slices), nSlices)
	}
	if len(s.Functions) == 0 {
		t.Error("snapshot has no functions")
	}
	valid := map[string]bool{
		"cold": true, "warm": true, "time-sharing": true, "exclusive-hot": true,
	}
	for _, fs := range s.Functions {
		if !valid[fs.KeepAlive] {
			t.Errorf("function %s has invalid keep-alive state %q", fs.Name, fs.KeepAlive)
		}
	}
	if s.Counters.Launched != p.Launched() {
		t.Errorf("snapshot launched %d != platform %d", s.Counters.Launched, p.Launched())
	}
}
