package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/overload"
)

// transitionSites are the lifecycle transitions that record the
// decision behind them, one entry per site: the record's kind and rule,
// and its outcome where two sites share both (an empty outcome matches
// any).
var transitionSites = []struct {
	kind          decisions.Kind
	rule, outcome string
}{
	{decisions.KindBind, "policy placement", ""},
	{decisions.KindDemote, "idle below hotness threshold", ""},
	{decisions.KindDrop, "client-timeout", "dropped from pending overflow"},
	{decisions.KindDrop, "client-timeout", "dropped from time-sharing queue"},
	{decisions.KindDrop, "retry-abandoned", ""},
	{decisions.KindRetry, "fault-retry", ""},
	{decisions.KindReject, "deadline-estimate", ""},
	{decisions.KindSuspect, "EWMA score over suspect threshold", ""},
	{decisions.KindSuspect, "recovery dwell satisfied", ""},
	{decisions.KindSuspect, "probation expired", ""},
	{decisions.KindQuarantine, "EWMA score over quarantine threshold", ""},
	{decisions.KindHedgeSpawn, "deadline at risk on suspect slice", "duplicated onto clean exclusive instance"},
	{decisions.KindHedgeSpawn, "deadline at risk on suspect slice", "duplicated onto clean shared slice"},
	{decisions.KindHedgeSettle, "loser-cancelled", ""},
	{decisions.KindSwapEvict, "LRU host-pool eviction under memory pressure", ""},
}

// hashTo returns the sha256 of what write streams.
func hashTo(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTransitionProvenanceGolden pins the decisions, Chrome trace and
// util exports of a run in which every lifecycle transition that
// records a decision fires at least once. The rich configuration runs
// with admission on, so the deadline estimate rejects requests, and a
// 30 GB host pool per node, so host copies are evicted. Every SLO is
// three times its catalog value: admission then lets requests into the
// pending overflow and the time-sharing queues on estimates that
// faults and degraded slices later break, so client timeouts still
// fire. Faults and quarantines tear down exclusive instances and a
// time-sharing pool slice with work in flight, so the trace and the
// ledger both carry the truncation of work that died with its
// hardware. The decision ring holds the whole run, so the coverage
// check sees every record.
func TestTransitionProvenanceGolden(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	for i := range specs {
		specs[i].SLO *= 3
	}
	cs := cluster.DefaultSpec()
	cs.CPUMemGB = 30
	dec := decisions.NewRecorder(1 << 14)
	rec, led := obs.NewRecorder(), util.NewLedger()
	opts := richOptions(dec)
	opts.Seed = 11
	opts.Overload = overload.Config{Admission: true}
	opts.Obs, opts.Util = rec, led
	p := New(cluster.New(cs), specs, opts)
	p.probation = rigProbation
	p.Run(flatTrace(specs, 32, 90, 11), 60)

	if dec.Dropped() != 0 {
		t.Fatalf("the ring dropped %d of %d records; coverage needs them all", dec.Dropped(), dec.Total())
	}
	seen := make([]int, len(transitionSites))
	for _, r := range dec.Snapshot() {
		for i, s := range transitionSites {
			if r.Kind == s.kind && r.Rule == s.rule && (s.outcome == "" || r.Outcome == s.outcome) {
				seen[i]++
			}
		}
	}
	for i, s := range transitionSites {
		if seen[i] == 0 {
			t.Errorf("no %s record with rule %q %s", s.kind, s.rule, s.outcome)
		}
	}
	if p.FaultsInjected() == 0 || p.Quarantines() == 0 || p.Retries() == 0 {
		t.Errorf("faults %d, quarantines %d, retries %d: the run must tear down busy hardware",
			p.FaultsInjected(), p.Quarantines(), p.Retries())
	}

	want := map[string]string{
		"decisions": "b70a61263d44e078abc8b796955a6ddf940fe5915cd6c2b76efb9e2cd42e57e3",
		"trace":     "e05ffaad194cfba8bc62cbcd2704dd8d9adca7e89a51ded8ee1c87079c62eb54",
		"util":      "4852f815710765cbef87e23100aa08ff2a4697c3a488b9ee194e958846af24ba",
	}
	got := map[string]string{
		"decisions": hashTo(t, dec.WriteJSON),
		"trace":     hashTo(t, func(w io.Writer) error { return obs.WriteChromeTrace(w, rec) }),
		"util":      hashTo(t, led.Report().WriteJSON),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s sha256 = %s, want %s", name, got[name], w)
		}
	}
}
