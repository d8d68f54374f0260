package decisions

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"fluidfaas/internal/obs/chunk"
)

// TestKindNames: every kind has a name and round-trips String ->
// ParseKind, and JSON marshalling uses names, not integers.
func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, back, err, k)
		}
		b, err := json.Marshal(k)
		if err != nil || string(b) != `"`+name+`"` {
			t.Errorf("Marshal(%v) = %s, %v", k, b, err)
		}
		var rt Kind
		if err := json.Unmarshal(b, &rt); err != nil || rt != k {
			t.Errorf("Unmarshal(%s) = %v, %v", b, rt, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded")
	}
}

// TestNilRecorder: every method on a nil *Recorder is a safe no-op, so
// call sites never need a nil check around arguments-free calls.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(Record{Kind: KindAdmit, Req: 1})
	r.Freeze(1, "x")
	if r.Total() != 0 || r.Dropped() != 0 || r.Freezes() != 0 {
		t.Error("nil recorder reports non-zero totals")
	}
	if r.Chain(1) != nil || r.Snapshot() != nil || r.Counts() != nil ||
		r.Dumps() != nil || r.Requests() != nil {
		t.Error("nil recorder returns non-nil collections")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
	var exp Export
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil || exp.Total != 0 {
		t.Errorf("nil WriteJSON produced %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteChainJSON(&buf, 3); err != nil {
		t.Errorf("nil WriteChainJSON: %v", err)
	}
}

// TestRecorderChains: records are sequenced in arrival order, chains
// are per-request and lossless across ring wraparound, and counts
// aggregate by kind.
func TestRecorderChains(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Record{Kind: KindAdmit, Req: i % 2, Outcome: "ok"})
	}
	r.Record(Record{Kind: KindSuspect, Req: NoRequest})
	if r.Total() != 11 || r.Dropped() != 7 {
		t.Errorf("total %d dropped %d, want 11/7", r.Total(), r.Dropped())
	}
	chain := r.Chain(0)
	if len(chain) != 5 {
		t.Fatalf("chain(0) len = %d, want 5 (lossless past ring wrap)", len(chain))
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].Seq <= chain[i-1].Seq {
			t.Fatalf("chain not seq-ordered: %+v", chain)
		}
	}
	if got := r.Requests(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Requests() = %v, want [0 1]", got)
	}
	counts := r.Counts()
	if counts["admit"] != 10 || counts["suspect"] != 1 || len(counts) != 2 {
		t.Errorf("Counts() = %v", counts)
	}
	if len(r.Snapshot()) != 4 {
		t.Errorf("snapshot len = %d, want ring capacity 4", len(r.Snapshot()))
	}
}

// TestDenseChains: the chain index is a table by request ID. IDs
// recorded out of order and with gaps read back ascending, each with
// its own chain; an unseen ID inside the table, a negative ID and an
// ID past its end have no chain and export an empty one.
func TestDenseChains(t *testing.T) {
	r := NewRecorder(4)
	ids := []int{2*chunk.Size + 3, 7, 0, 7, 40, 2*chunk.Size + 3, 7}
	for _, id := range ids {
		r.Record(Record{Kind: KindAdmit, Req: id, Outcome: "ok"})
	}
	r.Record(Record{Kind: KindSuspect, Req: NoRequest})
	want := []int{0, 7, 40, 2*chunk.Size + 3}
	if got := r.Requests(); !slices.Equal(got, want) {
		t.Fatalf("Requests() = %v, want %v", got, want)
	}
	for id, n := range map[int]int{0: 1, 7: 3, 40: 1, 2*chunk.Size + 3: 2} {
		chain := r.Chain(id)
		if len(chain) != n {
			t.Fatalf("Chain(%d) has %d records, want %d", id, len(chain), n)
		}
		for i, rec := range chain {
			if rec.Req != id || i > 0 && rec.Seq <= chain[i-1].Seq {
				t.Fatalf("Chain(%d) = %+v, want its own records in order", id, chain)
			}
		}
	}
	for _, id := range []int{1, 39, 2 * chunk.Size, -1, NoRequest - 1, 2*chunk.Size + 4, 1 << 40} {
		if chain := r.Chain(id); len(chain) != 0 {
			t.Errorf("Chain(%d) = %+v, want none", id, chain)
		}
		var buf bytes.Buffer
		if err := r.WriteChainJSON(&buf, id); err != nil {
			t.Fatal(err)
		}
		var exp ChainExport
		if err := json.Unmarshal(buf.Bytes(), &exp); err != nil || exp.Req != id || len(exp.Chain) != 0 {
			t.Errorf("WriteChainJSON(%d) = %s, want an empty chain", id, buf.Bytes())
		}
	}
}

// TestRecorderFreeze: freezing snapshots the ring into a dump; dumps
// are capped at maxDumps while the freeze counter keeps counting.
func TestRecorderFreeze(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Record{Kind: KindQuarantine, Req: NoRequest, Subject: "s1"})
	r.Freeze(10, "quarantine s1")
	dumps := r.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "quarantine s1" ||
		dumps[0].Time != 10 || len(dumps[0].Records) != 1 {
		t.Fatalf("dump = %+v", dumps)
	}
	for i := 0; i < maxDumps+3; i++ {
		r.Freeze(float64(i), "again")
	}
	if len(r.Dumps()) != maxDumps {
		t.Errorf("dumps retained = %d, want cap %d", len(r.Dumps()), maxDumps)
	}
	if r.Freezes() != maxDumps+4 {
		t.Errorf("Freezes() = %d, want %d", r.Freezes(), maxDumps+4)
	}
}

// TestTypedCandidatesRender: an emitted record renders its interned
// subject and typed candidates, each reason as text, after the body's
// own fields.
func TestTypedCandidatesRender(t *testing.T) {
	r := NewRecorder(16)
	inst, slice := r.Intern("bert#1"), r.Intern("gpu0/1g#2")
	admit := r.Body(Record{Kind: KindAdmit, Func: "bert", Rule: "scan", Outcome: "pending"})
	r.Record(Record{Time: 1, Kind: KindBind, Func: "bert", Req: NoRequest, Subject: "gpu0/1g#2",
		Outcome: "bound", Inputs: []KV{{K: "queue", V: "0"}}, Candidates: []Candidate{{ID: "gpu0/2g#0", Reason: "queue 3"}}})
	r.Emit(2, admit, 5, 1, inst, []Cand{
		{ID: inst, Reason: ReasonAtCapacity, N: 4, M: 4},
		{ID: slice, Reason: ReasonTSAtCapacity, N: 2, M: 2},
		{ID: inst, Reason: ReasonRetiring},
	})
	r.Emit(3, admit, 6, 0, NoID, nil)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[2].Subject != "" || len(snap[2].Candidates) != 0 {
		t.Fatalf("Snapshot = %+v, want the bind and two admits, the last bare", snap)
	}
	want := []Candidate{
		{ID: "bert#1", Reason: "at capacity (4/4)"},
		{ID: "gpu0/1g#2", Reason: "time-sharing at capacity (2/2)"},
		{ID: "bert#1", Reason: "retiring"},
	}
	if c := snap[1]; c.Subject != "bert#1" || c.Req != 5 || c.Attempt != 1 || !reflect.DeepEqual(c.Candidates, want) {
		t.Errorf("typed admit renders as %+v", c)
	}
}

// TestWriteJSONDeterministic: the export is byte-stable across repeated
// writes — the property the CI determinism smoke diffs against.
func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Record{Time: 1.5, Kind: KindAdmit, Func: "f", Req: 0, Subject: "s",
		Rule: "rule", Outcome: "ok",
		Inputs:     []KV{{K: "a", V: "1"}},
		Candidates: []Candidate{{ID: "c", Reason: "busy"}}})
	r.Record(Record{Time: 2, Kind: KindHedgeSpawn, Req: 0, Outcome: "dup"})
	r.Freeze(3, "anomaly")
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteJSON not byte-stable")
	}
	var c, d bytes.Buffer
	if err := r.WriteChainJSON(&c, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChainJSON(&d, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Error("WriteChainJSON not byte-stable")
	}
	var exp Export
	if err := json.Unmarshal(a.Bytes(), &exp); err != nil {
		t.Fatalf("export not JSON: %v", err)
	}
	if exp.Total != 2 || exp.Freezes != 1 || len(exp.Dumps) != 1 {
		t.Errorf("export = %+v", exp)
	}
}
