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

// TestAnalyticsComponentSum: for every finalised request in the mixed
// run, the reconstructed components sum exactly to the recorded
// end-to-end latency, and for served requests each component matches
// the metrics layer's own breakdown.
func TestAnalyticsComponentSum(t *testing.T) {
	rec := obs.NewRecorder()
	p := runMixed(t, rec, 42)

	records := map[[2]int]metrics.RequestRecord{}
	for _, r := range p.Collector().Records() {
		records[[2]int{r.Func, r.ID}] = r
	}
	paths := analytics.Reconstruct(rec)
	if len(paths) != len(records) {
		t.Fatalf("reconstructed %d paths, collector has %d records", len(paths), len(records))
	}

	const tol = 1e-9
	retried, served := 0, 0
	for _, pa := range paths {
		r, ok := records[[2]int{pa.Func, pa.Req}]
		if !ok {
			t.Fatalf("path %d/%d has no record", pa.Func, pa.Req)
		}
		c := pa.Comp
		if sum := c.Queue + c.Load + c.Exec + c.Transfer + c.Retry; math.Abs(sum-r.Latency()) > tol {
			t.Errorf("req %d/%d (%s): components sum %v != latency %v",
				pa.Func, pa.Req, pa.Outcome, sum, r.Latency())
		}
		if pa.Retries != r.Retries {
			t.Errorf("req %d/%d: path retries %d != record retries %d",
				pa.Func, pa.Req, pa.Retries, r.Retries)
		}
		if r.Retries > 0 {
			retried++
		}
		if pa.Outcome != "served" {
			continue
		}
		served++
		// Served requests: the span-derived components must agree with
		// the metrics layer's independent accounting — exec, load and
		// transfer exactly, and queue+retry together covering the
		// completion residual.
		if math.Abs(pa.Comp.Exec-r.Exec) > tol ||
			math.Abs(pa.Comp.Load-r.Load) > tol ||
			math.Abs(pa.Comp.Transfer-r.Transfer) > tol ||
			math.Abs(pa.Comp.Queue+pa.Comp.Retry-r.Queue) > tol {
			t.Errorf("req %d/%d: components %+v disagree with record exec=%v load=%v transfer=%v queue=%v",
				pa.Func, pa.Req, pa.Comp, r.Exec, r.Load, r.Transfer, r.Queue)
		}
	}
	if served == 0 {
		t.Fatal("mixed run served nothing; the invariant was never exercised")
	}
	if retried == 0 && p.Retries() > 0 {
		t.Error("platform retried requests but no path shows retries")
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
