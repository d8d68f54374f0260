// Package decisions records *why* the scheduler did what it did: a
// typed, deterministic provenance trail of every choice point in the
// platform — admission and rejection, plan-cache lookups, slice binds,
// demotions and swap evictions, brownout transitions, quarantines,
// hedge spawns and settlements, fault retries and drops. Where the obs
// recorder captures what happened (spans, marks, counters), a decision
// record captures the inputs the decider saw, the candidates it
// rejected and the rule that fired, causally linked to the request's
// span chain by request ID and attempt.
//
// Records flow through an obs.Bus ring (bounded, counted, live
// subscribable) for the /decisions stream, and additionally into
// per-request chains kept lossless so /why?req=<id> can replay a
// request's complete fate even after the ring has wrapped. An
// anomaly-triggered Freeze snapshots the ring into a bounded dump list
// for post-mortems (SLO burn-rate pages and quarantines freeze; see
// DESIGN.md §15).
//
// A nil *Recorder is the off switch: every method is nil-receiver safe
// and call sites guard any argument construction behind a nil check, so
// a run without a recorder is bit-identical to one built before this
// package existed (enforced by the platform's
// TestObserversDisabledIdentity).
package decisions

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/jsonw"
)

// Kind classifies a scheduling decision.
type Kind int

// Decision kinds, one per choice point in the scheduler stack.
const (
	// KindAdmit: admission routed a request (to an exclusive instance,
	// a time-sharing binding, a fresh binding, or the pending queue).
	KindAdmit Kind = iota
	// KindReject: admission control refused a request (see Rule for the
	// typed reason).
	KindReject
	// KindPlanHit: a placement lookup was served from the plan cache.
	KindPlanHit
	// KindPlanMiss: a placement lookup ran the full constructor and
	// populated the cache.
	KindPlanMiss
	// KindPlanUncached: a placement lookup bypassed the cache (counts
	// multiset overflowed the signature).
	KindPlanUncached
	// KindBind: capacity was bound — an exclusive instance launched on
	// slices, or a function bound to a time-sharing pool slice.
	KindBind
	// KindDemote: an idle exclusive instance was demoted to time
	// sharing.
	KindDemote
	// KindSwapEvict: a model's host-pool copy was evicted under memory
	// pressure.
	KindSwapEvict
	// KindSwapRelief: brownout pressure swapped an idle model out of
	// GPU memory.
	KindSwapRelief
	// KindBrownout: the degradation ladder changed level.
	KindBrownout
	// KindSuspect: a slice's health score crossed the suspect
	// threshold, or recovered back to healthy, or was readmitted on
	// probation (see Outcome).
	KindSuspect
	// KindQuarantine: a suspect slice was quarantined and torn down.
	KindQuarantine
	// KindHedgeSpawn: a request at deadline risk on a suspect slice
	// launched a duplicate.
	KindHedgeSpawn
	// KindHedgeSettle: a hedged pair resolved — one copy won, the other
	// was swallowed or cancelled.
	KindHedgeSettle
	// KindRetry: a request that lost its hardware was re-routed with
	// backoff.
	KindRetry
	// KindDrop: a request was abandoned (stale in queue, retries
	// exhausted, or run end).
	KindDrop

	numKinds
)

// kindLabels is the one name table: String renders from it and
// ParseKind scans it.
var kindLabels = [numKinds]string{
	KindAdmit: "admit", KindReject: "reject",
	KindPlanHit: "plan-hit", KindPlanMiss: "plan-miss",
	KindPlanUncached: "plan-uncached", KindBind: "bind", KindDemote: "demote",
	KindSwapEvict: "swap-evict", KindSwapRelief: "swap-relief",
	KindBrownout: "brownout", KindSuspect: "suspect",
	KindQuarantine: "quarantine", KindHedgeSpawn: "hedge-spawn",
	KindHedgeSettle: "hedge-settle", KindRetry: "retry",
	KindDrop: "drop",
}

// String names the kind as it appears in JSON exports and filters.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindLabels[k]
}

// ParseKind resolves a kind name as rendered by Kind.String.
func ParseKind(name string) (Kind, error) {
	name = strings.TrimSpace(name)
	for k, n := range kindLabels {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("decisions: unknown kind %q", name)
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// KV is one named input a decider saw, with the value rendered to a
// string by the call site (ordered slices, not maps, so records marshal
// deterministically).
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Candidate is one alternative the decider considered and passed over,
// with the reason it lost.
type Candidate struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// NoRequest is the Req value of platform-scoped decisions (binds,
// brownout transitions, quarantines, evictions) that are not tied to a
// single request.
const NoRequest = -1

// Record is one scheduling decision.
type Record struct {
	// Seq is the recorder-assigned sequence number (0-based, total
	// order over all decisions in a run).
	Seq int `json:"seq"`
	// Time is the virtual time the decision was made.
	Time float64 `json:"time"`
	// Kind classifies the decision.
	Kind Kind `json:"kind"`
	// Func names the deciding function ("" for platform-wide decisions
	// such as brownout transitions).
	Func string `json:"func,omitempty"`
	// Req is the request the decision is about, NoRequest (-1) for
	// platform-scoped decisions. Request-scoped records form the /why
	// chain.
	Req int `json:"req"`
	// Attempt is the request's attempt number at decision time (0 =
	// first try), linking the record to the matching obs span chain.
	Attempt int `json:"attempt,omitempty"`
	// Subject is the object decided about or chosen: an instance ID,
	// slice ID, model key or ladder level.
	Subject string `json:"subject,omitempty"`
	// Rule names the policy clause that fired (e.g. "route-exclusive",
	// "deadline-estimate", "retry-abandoned").
	Rule string `json:"rule,omitempty"`
	// Outcome states what was decided, human-readable.
	Outcome string `json:"outcome"`
	// Inputs are the signals the decider saw (pressure, scores,
	// estimates, cache signatures), in a fixed call-site order. The
	// slice may be shared between records (plan-lookup records reuse
	// one rendering per distinct lookup): treat it as read-only.
	Inputs []KV `json:"inputs,omitempty"`
	// Candidates are the alternatives considered and rejected, with
	// per-candidate reasons, in consideration order.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Dump is one frozen ring snapshot, captured when an anomaly fired.
type Dump struct {
	// Time is the virtual time of the freeze.
	Time float64 `json:"time"`
	// Reason says what anomaly triggered it ("quarantine gpu0/g0/s1",
	// "slo-burn: 2 pages").
	Reason string `json:"reason"`
	// Total and Dropped are the ring counters at freeze time; Records
	// is the retained window, oldest first.
	Total   int      `json:"total"`
	Dropped int      `json:"dropped"`
	Records []Record `json:"records"`
}

// maxDumps bounds retained anomaly dumps; later freezes are counted but
// not stored, so a quarantine storm cannot hoard memory.
const maxDumps = 8

// Recorder collects decision records. It is nil-safe: every method on a
// nil receiver is a no-op (or returns a zero value), so provenance can
// be compiled in everywhere and switched off by not constructing one.
//
// The ring (an obs.Bus) bounds the global stream; per-request chains
// are kept separately and losslessly so a request's complete fate
// survives ring wraparound. A mutex guards the chain and dump state for
// live readers; the bus has its own.
type Recorder struct {
	bus *obs.Bus[Record]

	mu     sync.Mutex
	seq    int
	byReq  map[int][]Record
	counts [numKinds]int
	dumps  []Dump
	frozen int // freezes triggered, including those past maxDumps
}

// NewRecorder returns a recorder whose ring retains the newest ringCap
// records (obs.DefaultBusCapacity when ringCap <= 0).
func NewRecorder(ringCap int) *Recorder {
	return &Recorder{
		bus:   obs.NewBus[Record](ringCap),
		byReq: map[int][]Record{},
	}
}

// Record stamps rec with the next sequence number and stores it: into
// the ring always, and into the request's chain when rec.Req >=
// 0. Callers set every other field, including Time.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec.Seq = r.seq
	r.seq++
	if rec.Kind >= 0 && rec.Kind < numKinds {
		r.counts[rec.Kind]++
	}
	if rec.Req >= 0 {
		r.byReq[rec.Req] = append(r.byReq[rec.Req], rec)
	}
	r.mu.Unlock()
	r.bus.Publish(rec)
}

// Freeze snapshots the ring into the dump list, tagged with the anomaly
// that triggered it. Beyond maxDumps the freeze is counted but the
// snapshot discarded.
func (r *Recorder) Freeze(now float64, reason string) {
	if r == nil {
		return
	}
	snap := r.bus.Snapshot()
	total, dropped := r.bus.Total(), r.bus.Dropped()
	r.mu.Lock()
	r.frozen++
	if len(r.dumps) < maxDumps {
		r.dumps = append(r.dumps, Dump{
			Time: now, Reason: reason,
			Total: total, Dropped: dropped, Records: snap,
		})
	}
	r.mu.Unlock()
}

// Chain returns the request's complete decision chain in decision
// order, nil when the request made no recorded decision (or r is nil).
func (r *Recorder) Chain(req int) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	chain := r.byReq[req]
	out := make([]Record, len(chain))
	copy(out, chain)
	return out
}

// Requests returns the IDs of all requests with a recorded chain,
// ascending.
func (r *Recorder) Requests() []int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.byReq))
	for id := range r.byReq {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Snapshot returns the ring's retained records, oldest first.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	return r.bus.Snapshot()
}

// Subscribe registers a live observer of every record (see
// obs.Bus.Subscribe). The cancel is a no-op on a nil recorder.
func (r *Recorder) Subscribe(fn func(Record)) (cancel func()) {
	if r == nil {
		return func() {}
	}
	return r.bus.Subscribe(fn)
}

// Total returns how many decisions were ever recorded.
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	return r.bus.Total()
}

// Dropped returns how many records the bounded ring overwrote
// (per-request chains retain them regardless).
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.bus.Dropped()
}

// Counts tallies decisions ever recorded by kind name, omitting zero
// kinds.
func (r *Recorder) Counts() map[string]int {
	if r == nil {
		return nil
	}
	out := map[string]int{}
	for k, n := range r.kindCounts() {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// kindCounts returns the per-kind tallies (all zero for a nil r).
func (r *Recorder) kindCounts() [numKinds]int {
	if r == nil {
		return [numKinds]int{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts
}

// Dumps returns the retained anomaly dumps in freeze order.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Dump, len(r.dumps))
	copy(out, r.dumps)
	return out
}

// Freezes returns how many anomaly freezes fired (including any past
// the dump bound).
func (r *Recorder) Freezes() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Export is the JSON document WriteJSON emits.
type Export struct {
	Total   int            `json:"total"`
	Dropped int            `json:"dropped"`
	Counts  map[string]int `json:"counts"`
	Freezes int            `json:"freezes,omitempty"`
	Records []Record       `json:"records"`
	Dumps   []Dump         `json:"dumps,omitempty"`
}

// ChainExport is the JSON document WriteChainJSON emits.
type ChainExport struct {
	Req   int      `json:"req"`
	Chain []Record `json:"chain"`
}

// MatchExport is the JSON document WriteMatchJSON emits.
type MatchExport struct {
	Total   int            `json:"total"`
	Dropped int            `json:"dropped"`
	Matched int            `json:"matched"`
	Counts  map[string]int `json:"counts"`
	Records []Record       `json:"records"`
}

// The exports below are streamed: every document is rendered through
// one jsonw.Writer (indent one space) and one record renderer, with the
// bytes encoding/json gives the document types above. A NaN or infinite
// time fails the export before anything is written.

// WriteJSON writes the recorder's state as one deterministic JSON
// document (Export): ring counters, per-kind tallies, the retained ring
// oldest first, and any anomaly dumps. Same run, same bytes.
func (r *Recorder) WriteJSON(w io.Writer) error {
	recs, dumps := r.Snapshot(), r.Dumps()
	if err := checkFinite(recs); err != nil {
		return err
	}
	for i := range dumps {
		d := &dumps[i]
		if !jsonw.Finite(d.Time) {
			return fmt.Errorf("decisions: json export: dump %d (%q) has non-finite time %v", i, d.Reason, d.Time)
		}
		if err := checkFinite(d.Records); err != nil {
			return err
		}
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("total")
	jw.Int(r.Total())
	jw.Key("dropped")
	jw.Int(r.Dropped())
	jw.Key("counts")
	r.writeCounts(jw)
	if n := r.Freezes(); n != 0 {
		jw.Key("freezes")
		jw.Int(n)
	}
	jw.Key("records")
	writeRecords(jw, nonNil(recs))
	if len(dumps) > 0 {
		jw.Key("dumps")
		jsonw.Array(jw, dumps, (*Dump).write)
	}
	jw.EndObject()
	return jw.Finish()
}

// WriteChainJSON writes one request's complete decision chain as JSON
// (ChainExport; an empty chain for unknown requests).
func (r *Recorder) WriteChainJSON(w io.Writer, req int) error {
	chain := r.Chain(req)
	if err := checkFinite(chain); err != nil {
		return err
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("req")
	jw.Int(req)
	jw.Key("chain")
	writeRecords(jw, nonNil(chain))
	jw.EndObject()
	return jw.Finish()
}

// WriteMatchJSON writes a filtered view of the ring as JSON
// (MatchExport): the recorder's ring counters and per-kind tallies,
// then matched — records the caller selected — and their count.
func (r *Recorder) WriteMatchJSON(w io.Writer, matched []Record) error {
	if err := checkFinite(matched); err != nil {
		return err
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("total")
	jw.Int(r.Total())
	jw.Key("dropped")
	jw.Int(r.Dropped())
	jw.Key("matched")
	jw.Int(len(matched))
	jw.Key("counts")
	r.writeCounts(jw)
	jw.Key("records")
	writeRecords(jw, nonNil(matched))
	jw.EndObject()
	return jw.Finish()
}

// nonNil turns a nil record list into an empty one, so documents carry
// "records": [] rather than null.
func nonNil(recs []Record) []Record {
	if recs == nil {
		return []Record{}
	}
	return recs
}

func checkFinite(recs []Record) error {
	for i := range recs {
		if rec := &recs[i]; !jsonw.Finite(rec.Time) {
			return fmt.Errorf("decisions: json export: record %d (%s) has non-finite time %v", rec.Seq, rec.Kind, rec.Time)
		}
	}
	return nil
}

// kindsByName lists the kinds in name order, the key order encoding/json
// gives the Counts map.
var kindsByName = func() [numKinds]Kind {
	var ks [numKinds]Kind
	for k := range ks {
		ks[k] = Kind(k)
	}
	sort.Slice(ks[:], func(i, j int) bool { return kindLabels[ks[i]] < kindLabels[ks[j]] })
	return ks
}()

// writeCounts writes Counts() as an object with sorted keys.
func (r *Recorder) writeCounts(jw *jsonw.Writer) {
	counts := r.kindCounts()
	jw.BeginObject()
	for _, k := range kindsByName {
		if counts[k] > 0 {
			jw.Key(kindLabels[k])
			jw.Int(counts[k])
		}
	}
	jw.EndObject()
}

// writeRecords is the one record renderer every document shares.
func writeRecords(jw *jsonw.Writer, recs []Record) { jsonw.Array(jw, recs, (*Record).write) }

func (rec *Record) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("seq")
	jw.Int(rec.Seq)
	jw.Key("time")
	jw.Float(rec.Time)
	jw.Key("kind")
	jw.String(rec.Kind.String())
	if rec.Func != "" {
		jw.Key("func")
		jw.String(rec.Func)
	}
	jw.Key("req")
	jw.Int(rec.Req)
	if rec.Attempt != 0 {
		jw.Key("attempt")
		jw.Int(rec.Attempt)
	}
	if rec.Subject != "" {
		jw.Key("subject")
		jw.String(rec.Subject)
	}
	if rec.Rule != "" {
		jw.Key("rule")
		jw.String(rec.Rule)
	}
	jw.Key("outcome")
	jw.String(rec.Outcome)
	if len(rec.Inputs) > 0 {
		jw.Key("inputs")
		jsonw.Array(jw, rec.Inputs, (*KV).write)
	}
	if len(rec.Candidates) > 0 {
		jw.Key("candidates")
		jsonw.Array(jw, rec.Candidates, (*Candidate).write)
	}
	jw.EndObject()
}

func (kv *KV) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("k")
	jw.String(kv.K)
	jw.Key("v")
	jw.String(kv.V)
	jw.EndObject()
}

func (c *Candidate) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("id")
	jw.String(c.ID)
	jw.Key("reason")
	jw.String(c.Reason)
	jw.EndObject()
}

func (d *Dump) write(jw *jsonw.Writer) {
	jw.BeginObject()
	jw.Key("time")
	jw.Float(d.Time)
	jw.Key("reason")
	jw.String(d.Reason)
	jw.Key("total")
	jw.Int(d.Total)
	jw.Key("dropped")
	jw.Int(d.Dropped)
	jw.Key("records")
	writeRecords(jw, d.Records)
	jw.EndObject()
}
