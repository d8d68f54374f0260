// Package decisions records *why* the scheduler did what it did: a
// typed, deterministic provenance trail of every choice point in the
// platform — admission and rejection, plan-cache lookups, slice binds,
// demotions and swap evictions, quarantines, hedge spawns and
// settlements, fault retries and drops. Where the obs recorder
// captures what happened (spans, marks, counters), a decision record
// captures the inputs the decider saw, the candidates it rejected and
// the rule that fired, causally linked to the request's span chain by
// request ID and attempt.
//
// A record is kept as typed facts and rendered to text only when read:
// a compact, pointer-free entry (sequence number, time, request,
// attempt) that refers to a body registered once and shared by every
// record of the same shape, to interned instance and slice IDs, and to
// typed candidates in an append-only arena. Entries flow into a bounded
// ring (counted) for the /decisions stream, and
// additionally into per-request chains kept lossless so /why?req=<id>
// can replay a request's complete fate even after the ring has wrapped.
// An anomaly-triggered Freeze snapshots the ring into a bounded dump
// list for post-mortems (SLO burn-rate pages and quarantines freeze;
// see DESIGN.md §15).
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
	"strconv"
	"strings"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/chunk"
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
	KindSwapEvict: "swap-evict", KindSuspect: "suspect",
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
// quarantines, evictions) that are not tied to a single request.
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
	// such as quarantines).
	Func string `json:"func,omitempty"`
	// Req is the request the decision is about, NoRequest (-1) for
	// platform-scoped decisions. Request-scoped records form the /why
	// chain.
	Req int `json:"req"`
	// Attempt is the request's attempt number at decision time (0 =
	// first try), linking the record to the matching obs span chain.
	Attempt int `json:"attempt,omitempty"`
	// Subject is the object decided about or chosen: an instance ID,
	// slice ID or model key.
	Subject string `json:"subject,omitempty"`
	// Rule names the policy clause that fired (e.g. "route-exclusive",
	// "deadline-estimate", "retry-abandoned").
	Rule string `json:"rule,omitempty"`
	// Outcome states what was decided, human-readable.
	Outcome string `json:"outcome"`
	// Inputs are the signals the decider saw (scores, occupancy,
	// estimates, cache signatures), in a fixed call-site order. The
	// slice may be shared between records (records of one Body share
	// it): treat it as read-only.
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

// ID is an interned instance or slice ID: its index in the recorder's
// ID table. Callers intern an ID once, when the instance launches or
// the slice joins a pool, and keep it, so a record names its subject
// and candidates without carrying strings.
type ID int32

// NoID is the zero ID. As a record's subject it selects the body's own
// Subject; it renders as "".
const NoID ID = 0

// Reason is why a typed candidate lost. Its text renders only when the
// record is read.
type Reason uint8

// Candidate reasons of the admission scan.
const (
	// ReasonRetiring: the instance is draining for teardown.
	ReasonRetiring Reason = iota
	// ReasonAtCapacity: the exclusive instance held N of its M
	// admissible requests.
	ReasonAtCapacity
	// ReasonTSAtCapacity: the time-sharing binding held N of its M.
	ReasonTSAtCapacity
)

// Cand is a passed-over candidate as a typed fact: the candidate's ID,
// the reason code and the two counts the reason reads, captured when
// the decision is made. It holds no pointer.
type Cand struct {
	ID     ID
	Reason Reason
	N, M   int32
}

// appendReason appends the text c's reason renders as.
func (c Cand) appendReason(b []byte) []byte {
	switch c.Reason {
	case ReasonRetiring:
		return append(b, "retiring"...)
	case ReasonAtCapacity:
		b = append(b, "at capacity ("...)
	case ReasonTSAtCapacity:
		b = append(b, "time-sharing at capacity ("...)
	default:
		b = append(b, "Reason("...)
		b = strconv.AppendInt(b, int64(c.Reason), 10)
		return append(b, ')')
	}
	b = strconv.AppendInt(b, int64(c.N), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.M), 10)
	return append(b, ')')
}

// Body is a handle to a record's shared part, registered once with the
// recorder that records it (see Recorder.Body): everything but the
// time, request, attempt, subject ID and typed candidates that Emit
// supplies per record.
type Body int32

// body is a registered Body.
type body struct {
	kind                       Kind
	fn, subject, rule, outcome string
	inputs                     []KV
	cands                      []Candidate
}

// entry is one record as the ring and the chain log hold it: the
// per-record facts and references into the recorder's tables. It holds
// no pointer, so neither the ring nor the log costs the GC a scan.
type entry struct {
	time    float64
	seq     int
	req     int
	attempt int32
	body    Body
	subject ID    // NoID: the body's Subject
	cand    int32 // first typed candidate in the arena
	ncand   int32
	next    int32 // in the log, the request's next entry (0: none)
}

// chain locates one request's entries in the log: a list threaded
// through entry.next.
type chain struct{ head, tail, n int32 }

// dump is a retained Dump before rendering.
type dump struct {
	time           float64
	reason         string
	total, dropped int
	entries        []entry
}

// Recorder collects decision records. It is nil-safe: every method on a
// nil receiver is a no-op (or returns a zero value), so provenance can
// be compiled in everywhere and switched off by not constructing one.
//
// Records are stored as typed facts and rendered to Records (and JSON)
// only when something reads them. A bounded ring holds the global
// stream; per-request chains are kept separately and losslessly, in an
// append-only log, so a request's complete fate survives ring
// wraparound.
//
// A Recorder takes no lock. It is written and read on the engine
// goroutine; other goroutines may read it only after the run ends.
type Recorder struct {
	ring   obs.Ring[entry]
	bodies chunk.Table[body]
	ids    []string
	idOf   map[string]ID
	cands  chunk.Table[Cand] // the typed-candidate arena
	log    chunk.Table[entry]
	chains map[int]chain
	counts [numKinds]int
	dumps  []dump
	frozen int // freezes triggered, including those past maxDumps
}

// NewRecorder returns a recorder whose ring retains the newest ringCap
// records (obs.DefaultRingCapacity when ringCap <= 0).
func NewRecorder(ringCap int) *Recorder {
	return &Recorder{
		ring:   obs.NewRing[entry](ringCap),
		ids:    []string{""},
		idOf:   map[string]ID{"": NoID},
		chains: map[int]chain{},
	}
}

// Intern returns s's ID, adding s to the ID table on first sight. A nil
// recorder returns NoID.
func (r *Recorder) Intern(s string) ID {
	if r == nil {
		return NoID
	}
	id, ok := r.idOf[s]
	if !ok {
		id = ID(len(r.ids))
		r.ids = append(r.ids, s)
		r.idOf[s] = id
	}
	return id
}

// Body registers rec's shared part — Kind, Func, Subject, Rule,
// Outcome, Inputs and Candidates; Seq, Time, Req and Attempt are not
// part of it — and returns the handle Emit records it by. Inputs and
// Candidates are kept, not copied: treat them as read-only. A nil
// recorder returns 0.
func (r *Recorder) Body(rec Record) Body {
	if r == nil {
		return 0
	}
	return r.addBody(&rec)
}

func (r *Recorder) addBody(rec *Record) Body {
	r.bodies.Push(body{
		kind: rec.Kind, fn: rec.Func, subject: rec.Subject,
		rule: rec.Rule, outcome: rec.Outcome,
		inputs: rec.Inputs, cands: rec.Candidates,
	})
	return Body(r.bodies.Len() - 1)
}

// Emit records one decision made at time t: body b (registered with
// r) about request req (NoRequest for none) on its attempt, naming
// subject (NoID for the body's own) and passing over cands, which are
// copied. It takes the next sequence number.
func (r *Recorder) Emit(t float64, b Body, req, attempt int, subject ID, cands []Cand) {
	if r == nil {
		return
	}
	r.emit(nil, entry{time: t, req: req, attempt: int32(attempt), body: b, subject: subject}, cands)
}

// Record stamps rec with the next sequence number and stores it: into
// the ring always, and into the request's chain when rec.Req >=
// 0. Callers set every other field, including Time. Each call registers
// a body of its own; decisions that repeat one go through Body and
// Emit.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	r.emit(&rec, entry{time: rec.Time, req: rec.Req, attempt: int32(rec.Attempt)}, nil)
}

// emit stores e, with rec registered as its body when non-nil.
func (r *Recorder) emit(rec *Record, e entry, cands []Cand) {
	if rec != nil {
		e.body = r.addBody(rec)
	}
	e.seq = r.ring.Total()
	if len(cands) > 0 {
		e.cand, e.ncand = int32(r.cands.Len()), int32(len(cands))
		for _, c := range cands {
			r.cands.Push(c)
		}
	}
	if k := r.bodies.At(int(e.body)).kind; k >= 0 && k < numKinds {
		r.counts[k]++
	}
	r.ring.Push(e)
	if e.req >= 0 {
		i := int32(r.log.Len())
		c, ok := r.chains[e.req]
		if ok {
			r.log.At(int(c.tail)).next = i
			c.tail = i
		} else {
			c.head, c.tail = i, i
		}
		c.n++
		r.chains[e.req] = c
		r.log.Push(e)
	}
}

// Freeze snapshots the ring into the dump list, tagged with the anomaly
// that triggered it. Beyond maxDumps the freeze is counted but the
// snapshot discarded.
func (r *Recorder) Freeze(now float64, reason string) {
	if r == nil {
		return
	}
	r.frozen++
	if len(r.dumps) < maxDumps {
		r.dumps = append(r.dumps, dump{
			time: now, reason: reason,
			total: r.ring.Total(), dropped: r.ring.Dropped(),
			entries: r.ring.Snapshot(),
		})
	}
}

// fields renders e's Record without its typed candidates.
func (r *Recorder) fields(e *entry) Record {
	b := r.bodies.At(int(e.body))
	rec := Record{
		Seq: e.seq, Time: e.time, Kind: b.kind, Func: b.fn,
		Req: e.req, Attempt: int(e.attempt), Subject: b.subject,
		Rule: b.rule, Outcome: b.outcome, Inputs: b.inputs, Candidates: b.cands,
	}
	if e.subject != NoID {
		rec.Subject = r.ids[e.subject]
	}
	return rec
}

// typed returns e's typed candidates, in buf's storage when it has room.
func (r *Recorder) typed(e *entry, buf []Cand) []Cand {
	buf = buf[:0]
	for i := e.cand; i < e.cand+e.ncand; i++ {
		buf = append(buf, *r.cands.At(int(i)))
	}
	return buf
}

// record renders e as the Record it stands for: the body's candidates,
// then the typed ones.
func (r *Recorder) record(e *entry) Record {
	rec := r.fields(e)
	if typed := r.typed(e, nil); len(typed) > 0 {
		cands := make([]Candidate, 0, len(rec.Candidates)+len(typed))
		cands = append(cands, rec.Candidates...)
		for _, c := range typed {
			cands = append(cands, Candidate{ID: r.ids[c.ID], Reason: string(c.appendReason(nil))})
		}
		rec.Candidates = cands
	}
	return rec
}

func (r *Recorder) records(es []entry) []Record {
	out := make([]Record, len(es))
	for i := range es {
		out[i] = r.record(&es[i])
	}
	return out
}

// chain returns req's entries in record order.
func (r *Recorder) chain(req int) []entry {
	c, ok := r.chains[req]
	if !ok {
		return nil
	}
	es := make([]entry, 0, c.n)
	for i := c.head; ; i = r.log.At(int(i)).next {
		es = append(es, *r.log.At(int(i)))
		if i == c.tail {
			return es
		}
	}
}

// Chain returns the request's complete decision chain in decision
// order, nil when r is nil and empty when the request made no recorded
// decision.
func (r *Recorder) Chain(req int) []Record {
	if r == nil {
		return nil
	}
	return r.records(r.chain(req))
}

// Requests returns the IDs of all requests with a recorded chain,
// ascending.
func (r *Recorder) Requests() []int {
	if r == nil {
		return nil
	}
	out := make([]int, 0, len(r.chains))
	for id := range r.chains {
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
	return r.records(r.ring.Snapshot())
}

// Total returns how many decisions were ever recorded.
func (r *Recorder) Total() int {
	if r == nil {
		return 0
	}
	return r.ring.Total()
}

// Dropped returns how many records the bounded ring overwrote
// (per-request chains retain them regardless).
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Counts tallies decisions ever recorded by kind name, omitting zero
// kinds.
func (r *Recorder) Counts() map[string]int {
	if r == nil {
		return nil
	}
	out := map[string]int{}
	for k, n := range r.counts {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// Dumps returns the retained anomaly dumps in freeze order.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	out := make([]Dump, len(r.dumps))
	for i := range r.dumps {
		d := &r.dumps[i]
		out[i] = Dump{Time: d.time, Reason: d.reason, Total: d.total, Dropped: d.dropped, Records: r.records(d.entries)}
	}
	return out
}

// Freezes returns how many anomaly freezes fired (including any past
// the dump bound).
func (r *Recorder) Freezes() int {
	if r == nil {
		return 0
	}
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
// time fails the export before anything is written. A nil recorder
// exports as an empty one.

// WriteJSON writes the recorder's state as one deterministic JSON
// document (Export): ring counters, per-kind tallies, the retained ring
// oldest first, and any anomaly dumps. Same run, same bytes.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		r = &Recorder{}
	}
	recs := r.ring.Snapshot()
	if err := r.checkFinite(recs); err != nil {
		return err
	}
	for i := range r.dumps {
		d := &r.dumps[i]
		if !jsonw.Finite(d.time) {
			return fmt.Errorf("decisions: json export: dump %d (%q) has non-finite time %v", i, d.reason, d.time)
		}
		if err := r.checkFinite(d.entries); err != nil {
			return err
		}
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("total")
	jw.Int(r.ring.Total())
	jw.Key("dropped")
	jw.Int(r.ring.Dropped())
	jw.Key("counts")
	writeCounts(jw, &r.counts)
	if r.frozen != 0 {
		jw.Key("freezes")
		jw.Int(r.frozen)
	}
	jw.Key("records")
	r.writeEntries(jw, recs)
	if len(r.dumps) > 0 {
		jw.Key("dumps")
		jw.BeginArray()
		for i := range r.dumps {
			r.writeDump(jw, &r.dumps[i])
		}
		jw.EndArray()
	}
	jw.EndObject()
	return jw.Finish()
}

// WriteChainJSON writes one request's complete decision chain as JSON
// (ChainExport; an empty chain for unknown requests).
func (r *Recorder) WriteChainJSON(w io.Writer, req int) error {
	if r == nil {
		r = &Recorder{}
	}
	es := r.chain(req)
	if err := r.checkFinite(es); err != nil {
		return err
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("req")
	jw.Int(req)
	jw.Key("chain")
	r.writeEntries(jw, es)
	jw.EndObject()
	return jw.Finish()
}

// WriteMatchJSON writes a filtered view of the ring as JSON
// (MatchExport): the recorder's ring counters and per-kind tallies,
// then matched — records the caller selected — and their count.
func (r *Recorder) WriteMatchJSON(w io.Writer, matched []Record) error {
	for i := range matched {
		if rec := &matched[i]; !jsonw.Finite(rec.Time) {
			return fmt.Errorf("decisions: json export: record %d (%s) has non-finite time %v", rec.Seq, rec.Kind, rec.Time)
		}
	}
	if r == nil {
		r = &Recorder{}
	}
	jw := jsonw.NewWriter(w, " ")
	jw.BeginObject()
	jw.Key("total")
	jw.Int(r.ring.Total())
	jw.Key("dropped")
	jw.Int(r.ring.Dropped())
	jw.Key("matched")
	jw.Int(len(matched))
	jw.Key("counts")
	writeCounts(jw, &r.counts)
	jw.Key("records")
	jw.BeginArray()
	for i := range matched {
		writeRecord(jw, &matched[i], nil, nil)
	}
	jw.EndArray()
	jw.EndObject()
	return jw.Finish()
}

func (r *Recorder) checkFinite(es []entry) error {
	for i := range es {
		if e := &es[i]; !jsonw.Finite(e.time) {
			return fmt.Errorf("decisions: json export: record %d (%s) has non-finite time %v", e.seq, r.bodies.At(int(e.body)).kind, e.time)
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

// writeCounts writes the per-kind tallies as Counts() marshals: an
// object with sorted keys, zero kinds omitted.
func writeCounts(jw *jsonw.Writer, counts *[numKinds]int) {
	jw.BeginObject()
	for _, k := range kindsByName {
		if counts[k] > 0 {
			jw.Key(kindLabels[k])
			jw.Int(counts[k])
		}
	}
	jw.EndObject()
}

// writeEntries writes es as an array of records.
func (r *Recorder) writeEntries(jw *jsonw.Writer, es []entry) {
	var typed []Cand
	jw.BeginArray()
	for i := range es {
		e := &es[i]
		rec := r.fields(e)
		typed = r.typed(e, typed)
		writeRecord(jw, &rec, typed, r.ids)
	}
	jw.EndArray()
}

func (r *Recorder) writeDump(jw *jsonw.Writer, d *dump) {
	jw.BeginObject()
	jw.Key("time")
	jw.Float(d.time)
	jw.Key("reason")
	jw.String(d.reason)
	jw.Key("total")
	jw.Int(d.total)
	jw.Key("dropped")
	jw.Int(d.dropped)
	jw.Key("records")
	r.writeEntries(jw, d.entries)
	jw.EndObject()
}

// writeRecord is the one record renderer every document shares: rec,
// with typed (named through ids) rendered after rec.Candidates.
func writeRecord(jw *jsonw.Writer, rec *Record, typed []Cand, ids []string) {
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
	if len(rec.Candidates)+len(typed) > 0 {
		jw.Key("candidates")
		jw.BeginArray()
		for i := range rec.Candidates {
			c := &rec.Candidates[i]
			writeCandidate(jw, c.ID, c.Reason, nil)
		}
		for _, c := range typed {
			writeCandidate(jw, ids[c.ID], "", c.appendReason)
		}
		jw.EndArray()
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

// writeCandidate writes one candidate, its reason given as text or, for
// a typed candidate, appended by appendReason.
func writeCandidate(jw *jsonw.Writer, id, reason string, appendReason func([]byte) []byte) {
	jw.BeginObject()
	jw.Key("id")
	jw.String(id)
	jw.Key("reason")
	if appendReason != nil {
		jw.StringFunc(appendReason)
	} else {
		jw.String(reason)
	}
	jw.EndObject()
}
