package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fluidfaas/internal/cluster"
	"fluidfaas/internal/dnn"
	"fluidfaas/internal/faults"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/scheduler"
	"fluidfaas/internal/trace"
)

// fullStackRun holds one full-stack run and its observability sinks, so
// the identity tests can compare both in-memory state and every export
// byte stream.
type fullStackRun struct {
	p    *Platform
	rec  *obs.Recorder
	dec  *decisions.Recorder
	util *util.Ledger
	// events is every lifecycle event the run published, in order.
	events []Event
}

// runRich runs the rich Small configuration, richOptions with opts'
// observers attached: degraded and slice faults, gray scoring with
// hedging, the swap tier and full overload control.
func runRich(t *testing.T, opts Options, subs ...func(Event)) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Small)
	rich := richOptions(opts.Decisions)
	rich.Obs, rich.Util = opts.Obs, opts.Util
	p := newRich(specs, rich)
	for _, fn := range subs {
		p.Subscribe(fn)
	}
	p.Run(flatTrace(specs, 6, 180, 7), 60)
	return p
}

// observed runs run with all three observers attached: the span
// recorder, the decision recorder and the utilization ledger, and
// keeps the run's event stream.
func observed(t *testing.T, run runFunc) fullStackRun {
	t.Helper()
	r := fullStackRun{
		rec:  obs.NewRecorder(),
		dec:  decisions.NewRecorder(0),
		util: util.NewLedger(),
	}
	r.p = run(t, Options{Obs: r.rec, Decisions: r.dec, Util: r.util}, collect(&r.events))
	return r
}

// runFunc runs a rig with opts, subs subscribed to its lifecycle events.
type runFunc func(t *testing.T, opts Options, subs ...func(Event)) *Platform

// collect returns a subscriber that appends every event to dst.
func collect(dst *[]Event) func(Event) {
	return func(e Event) { *dst = append(*dst, e) }
}

// runFullStack exercises every subsystem at once, every observer
// included.
func runFullStack(t *testing.T) fullStackRun { return observed(t, runRich) }

// exports renders every exporter into bytes: Chrome trace, Prometheus
// text, the decision-provenance JSON, and the utilization report JSON.
func (r fullStackRun) exports(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, r.rec); err != nil {
		t.Fatal(err)
	}
	out["trace"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := obs.WritePrometheus(&buf, r.rec); err != nil {
		t.Fatal(err)
	}
	out["prom"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := r.dec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["decisions"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := r.util.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["util"] = append([]byte(nil), buf.Bytes()...)
	return out
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordsSHA is a sha256 over the JSON encoding of a run's request
// records, in record order.
func recordsSHA(t *testing.T, p *Platform) string {
	t.Helper()
	b, err := json.Marshal(p.Collector().Records())
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// TestFullStackGoldenExports pins the full-stack run byte for byte: the
// request records and all four export streams hash to the values the
// kernel produced when every arrival was scheduled up front, and the
// event count is unchanged. Any diff here is a behaviour change of the
// kernel or the platform, not noise.
func TestFullStackGoldenExports(t *testing.T) {
	r := runFullStack(t)
	want := map[string]string{
		"records":   "3aa05ecf13bf9212ae00c07429f3a17c6b4c505a6103daa369949f1caf726aae",
		"trace":     "68131eedfb99c8b879dd687ff74e8f174f93a16e978767c1d9296fe6a1e7c552",
		"prom":      "39a0e8c7ca2b303436912fa17cc1acc007f93246059d1f82cde8623091382890",
		"decisions": "7115441a28cf2186b8948855b6716dd44b2c1b0e4f280c9389cb78735c707f0f",
		"util":      "3b8d6e77af8ccd45eece975d830f04f7e82aefe569d2c485d960ea90f901c65e",
	}
	got := map[string]string{"records": recordsSHA(t, r.p)}
	for name, b := range r.exports(t) {
		got[name] = sha256Hex(b)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s sha256 = %s, want %s", name, got[name], w)
		}
	}
	if st := r.p.Engine().Stats(); st.Executed != 9069 || st.Scheduled != 9069 {
		t.Errorf("engine executed %d of %d scheduled events, want 9069 of 9069", st.Executed, st.Scheduled)
	}
}

// TestFullStackRunRepeatable: two same-seed full-stack runs are
// identical to each other in state, counters and exports.
func TestFullStackRunRepeatable(t *testing.T) {
	a, b := runFullStack(t), runFullStack(t)
	if !reflect.DeepEqual(a.p.Collector().Records(), b.p.Collector().Records()) {
		t.Error("request records diverged")
	}
	if a.p.Engine().Executed() != b.p.Engine().Executed() {
		t.Errorf("event counts diverged: %d vs %d", a.p.Engine().Executed(), b.p.Engine().Executed())
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Error("event streams diverged")
	}
	if !reflect.DeepEqual(a.p.UtilGPCs, b.p.UtilGPCs) {
		t.Error("utilisation timelines diverged")
	}
	ea, eb := a.exports(t), b.exports(t)
	for name, want := range ea {
		if !bytes.Equal(want, eb[name]) {
			t.Errorf("%s export diverged (%d vs %d bytes)", name, len(want), len(eb[name]))
		}
	}
}

// TestObserversDisabledIdentity: the span recorder, the decision
// recorder and the utilization ledger are pure observers. Each run, bare
// and with all three attached, is bit-for-bit identical in records,
// events, counters and utilisation, and each observer recorded
// something. The runs are the richest configuration (fail-stop and gray
// faults, quarantine with hedging, the swap tier, overload control) and
// two plain FluidFaaS medium runs.
func TestObserversDisabledIdentity(t *testing.T) {
	medium := func(seed int64) runFunc {
		return func(t *testing.T, opts Options, subs ...func(Event)) *Platform {
			opts.Policy = &scheduler.FluidFaaS{}
			return runMedium(t, opts, seed, subs...)
		}
	}
	for _, c := range []struct {
		name string
		run  runFunc
		rich bool
	}{
		{"rich", runRich, true},
		{"medium-seed77", medium(77), false},
		{"medium-seed311", medium(311), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var events []Event
			a := c.run(t, Options{}, collect(&events))
			full := observed(t, c.run)
			b := full.p
			if !reflect.DeepEqual(a.Collector().Records(), b.Collector().Records()) {
				t.Error("request records diverged with the observers attached")
			}
			if a.Engine().Executed() != b.Engine().Executed() {
				t.Errorf("event counts diverged: %d vs %d", a.Engine().Executed(), b.Engine().Executed())
			}
			if !reflect.DeepEqual(events, full.events) || a.TotalEvents() != b.TotalEvents() ||
				!reflect.DeepEqual(a.CountEvents(), b.CountEvents()) {
				t.Error("event streams diverged")
			}
			if !reflect.DeepEqual(a.UtilGPCs, b.UtilGPCs) {
				t.Error("utilisation timelines diverged")
			}
			if ca, cb := a.Snapshot().Counters, b.Snapshot().Counters; ca != cb {
				t.Errorf("snapshot counters diverged: %+v vs %+v", ca, cb)
			}
			for _, c := range []struct {
				name   string
				ga, gb float64
			}{
				{"Launched", float64(a.Launched()), float64(b.Launched())},
				{"Evictions", float64(a.Evictions()), float64(b.Evictions())},
				{"Migrations", float64(a.Migrations()), float64(b.Migrations())},
				{"SwapIns", float64(a.SwapIns()), float64(b.SwapIns())},
				{"Rejected", float64(a.Rejected()), float64(b.Rejected())},
				{"Quarantines", float64(a.Quarantines()), float64(b.Quarantines())},
				{"Suspects", float64(a.Suspects()), float64(b.Suspects())},
				{"Hedges", float64(a.Hedges()), float64(b.Hedges())},
				{"HedgeWins", float64(a.HedgeWins()), float64(b.HedgeWins())},
				{"HedgeCancels", float64(a.HedgeCancels()), float64(b.HedgeCancels())},
				{"HedgeWastedSeconds", a.HedgeWastedSeconds(), b.HedgeWastedSeconds()},
			} {
				if c.ga != c.gb {
					t.Errorf("%s diverged: %v vs %v", c.name, c.ga, c.gb)
				}
			}
			if !reflect.DeepEqual(a.RejectedByReason(), b.RejectedByReason()) {
				t.Errorf("reject reasons diverged: %v vs %v", a.RejectedByReason(), b.RejectedByReason())
			}
			if c.rich && (a.FaultsInjected() == 0 || a.Hedges() == 0 || a.Rejected() == 0) {
				t.Errorf("faults %d, hedges %d, rejects %d: the run must exercise the failure and overload paths",
					a.FaultsInjected(), a.Hedges(), a.Rejected())
			}
			spans := 0
			for range full.rec.Spans() {
				spans++
			}
			if spans == 0 || full.dec.Total() == 0 || len(full.util.Report().Slices) == 0 {
				t.Error("an attached observer recorded nothing")
			}
		})
	}
}

// TestCountEventsLossless: CountEvents reads the per-kind tally, so on a
// run of more than 4096 events it still counts every published event:
// it sums to TotalEvents, matches a subscriber, and agrees with the
// run-counter accessors.
func TestCountEventsLossless(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	p := newRich(specs, richOptions(nil))
	var streamed [numEventKinds]int
	p.Subscribe(func(e Event) { streamed[e.Kind]++ })
	p.Run(flatTrace(specs, 12, 1800, 7), 60)
	if p.TotalEvents() <= eventLogCap {
		t.Fatalf("run published only %d events; it must exceed %d", p.TotalEvents(), eventLogCap)
	}
	counts := p.CountEvents()
	sum := 0
	for k := EventKind(0); k < numEventKinds; k++ {
		sum += counts[k]
		if counts[k] != streamed[k] {
			t.Errorf("%s: counted %d, subscriber saw %d", k, counts[k], streamed[k])
		}
	}
	if sum != p.TotalEvents() {
		t.Errorf("counts sum to %d, want TotalEvents %d", sum, p.TotalEvents())
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Launched", p.Launched(), counts[EvLaunch]},
		{"Evictions", p.Evictions(), counts[EvEvict]},
		{"Migrations", p.Migrations(), counts[EvMigrate]},
		{"FaultsInjected", p.FaultsInjected(), counts[EvFault] + counts[EvDegrade]},
		{"Retries", p.Retries(), counts[EvRetry]},
		{"Rejected", p.Rejected(), counts[EvReject]},
		{"SwapIns", p.SwapIns(), counts[EvSwapIn]},
		{"SwapOuts", p.SwapOuts(), counts[EvSwapOut]},
		{"Quarantines", p.Quarantines(), counts[EvSliceQuarantine]},
		{"Hedges", p.Hedges(), counts[EvHedge]},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, events say %d", c.name, c.got, c.want)
		}
	}
	if p.Launched() == 0 || p.Retries() == 0 || p.Rejected() == 0 {
		t.Errorf("launched %d, retries %d, rejected %d: the run must exercise these paths",
			p.Launched(), p.Retries(), p.Rejected())
	}
}

// tiedTrace is the full-stack trace with arrivals floored to half
// seconds: most arrivals tie with another, and every one of them ties
// with a control tick or utilisation sample.
func tiedTrace(specs []FunctionSpec) *trace.Trace {
	tr := flatTrace(specs, 6, 180, 7)
	for i := range tr.Requests {
		tr.Requests[i].Arrival = math.Floor(tr.Requests[i].Arrival*2) / 2
	}
	return tr
}

// shuffledTrace returns a copy of tr with its requests in a seeded random
// order; IDs travel with their requests. The permutation is the one the
// pinned hashes were recorded with: a math/rand shuffle seeded as
// sim.NewRNG(3, "shuffle") seeds its stream.
func shuffledTrace(tr *trace.Trace) *trace.Trace {
	out := *tr
	out.Requests = append([]trace.Request(nil), tr.Requests...)
	h := fnv.New64a()
	h.Write([]byte("shuffle"))
	rand.New(rand.NewSource(3^int64(h.Sum64()))).Shuffle(len(out.Requests), func(i, j int) {
		out.Requests[i], out.Requests[j] = out.Requests[j], out.Requests[i]
	})
	return &out
}

func runRichTrace(t *testing.T, tr *trace.Trace) *Platform {
	t.Helper()
	p := newRich(specsFor(t, dnn.Small), richOptions(nil))
	p.Run(tr, 60)
	return p
}

// TestRunTiedArrivalsGolden: exact-time ties among arrivals, and between
// arrivals and the control and sampling loops, fire in the order they
// did when every arrival was scheduled up front. An unsorted trace
// replays exactly like its stable sort by arrival, which keeps tied
// requests in trace order. The hashes were recorded with the up-front
// scheduler.
func TestRunTiedArrivalsGolden(t *testing.T) {
	specs := specsFor(t, dnn.Small)
	tied := tiedTrace(specs)
	shuffled := shuffledTrace(tied)
	sorted := shuffledTrace(tied)
	sort.SliceStable(sorted.Requests, func(i, j int) bool {
		return sorted.Requests[i].Arrival < sorted.Requests[j].Arrival
	})
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		want string
	}{
		{"tied", tied, "403a7497ca738c5655e29b7042132394c1e24f5e767b7a8f1c5c5c0b2f508ae3"},
		{"shuffled", shuffled, "f028d2bf37c043be9e3aa5f4da8b90530ba411f03432b0ae727ee6ee793942ce"},
		{"shuffled then stable-sorted", sorted, "f028d2bf37c043be9e3aa5f4da8b90530ba411f03432b0ae727ee6ee793942ce"},
	} {
		p := runRichTrace(t, c.tr)
		if got := recordsSHA(t, p); got != c.want {
			t.Errorf("%s: records sha256 = %s, want %s", c.name, got, c.want)
		}
		if got := p.Engine().Executed(); got != 8849 {
			t.Errorf("%s: %d events executed, want 8849", c.name, got)
		}
	}
}

// runBatched is a seeded run with dynamic batching on (MaxBatch 4) and
// degraded-slice faults under the gray scorer, so batch formation, the
// batch service-time curve and the scorer's batched declared time all
// feed the records.
func runBatched(t *testing.T) *Platform {
	t.Helper()
	specs := specsFor(t, dnn.Medium)
	p := New(cluster.New(cluster.DefaultSpec()), specs, Options{
		Policy: &scheduler.FluidFaaS{}, Seed: 11, MaxBatch: 4,
		Faults: &faults.Spec{DegradedRate: 0.05, DegradedMTTR: 60},
		Gray:   GrayOptions{Enabled: true},
	})
	p.Run(flatTrace(specs, 12, 150, 11), 60)
	return p
}

// TestBatchedRunGolden pins a batched run byte for byte: the request
// records hash and the event count. Nothing else runs MaxBatch > 1
// against a golden.
func TestBatchedRunGolden(t *testing.T) {
	p := runBatched(t)
	if got, want := recordsSHA(t, p), "08708904e7dcd376e850e99e28f1d0156fa77daed31c6f4be151278369018469"; got != want {
		t.Errorf("records sha256 = %s, want %s", got, want)
	}
	if got := p.Engine().Executed(); got != 23246 {
		t.Errorf("%d events executed, want 23246", got)
	}
}
