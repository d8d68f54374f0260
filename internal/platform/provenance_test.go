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
	{decisions.KindReject, "shed-priority", ""},
	{decisions.KindBrownout, "pressure ladder", ""},
	{decisions.KindSuspect, "EWMA score over suspect threshold", ""},
	{decisions.KindSuspect, "recovery dwell satisfied", ""},
	{decisions.KindSuspect, "probation expired", ""},
	{decisions.KindQuarantine, "EWMA score over quarantine threshold", ""},
	{decisions.KindHedgeSpawn, "deadline at risk on suspect slice", "duplicated onto clean exclusive instance"},
	{decisions.KindHedgeSpawn, "deadline at risk on suspect slice", "duplicated onto clean shared slice"},
	{decisions.KindHedgeSettle, "loser-cancelled", ""},
	{decisions.KindSwapEvict, "LRU host-pool eviction under memory pressure", ""},
	{decisions.KindSwapRelief, "most-idle cold instance swapped out instead of shedding", ""},
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
// under brownout alone, with ranked priorities (so the shed rung and
// swap relief fire) and a 30 GB host pool per node (so host copies are
// evicted). Faults and quarantines tear down exclusive instances and a
// time-sharing pool slice with work in flight, so the trace and the
// ledger both carry the truncation of work that died with its
// hardware. The decision ring holds the whole run, so the coverage
// check sees every record.
func TestTransitionProvenanceGolden(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	for i := range specs {
		specs[i].Priority = i
	}
	cs := cluster.DefaultSpec()
	cs.CPUMemGB = 30
	dec := decisions.NewRecorder(1 << 14)
	rec, led := obs.NewRecorder(), util.NewLedger()
	opts := richOptions(dec)
	opts.Seed = 11
	opts.Overload = overload.Config{Brownout: true}
	opts.Obs, opts.Util = rec, led
	p := New(cluster.New(cs), specs, opts)
	p.probation = rigProbation
	p.Run(flatTrace(specs, 24, 90, 11), 60)

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
		"decisions": "10e3f680d05e945c1602f2c5e3c3052669e8f961802979c8e46065da57293fcf",
		"trace":     "8f6eaa5eb1b1534d25bd042e34f43d3ee5c6b8276e9947220a63faca9170c0e7",
		"util":      "ca274ec542c41392a14268d5bb449068811ce83c4fb18976ec5822caffd96839",
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
