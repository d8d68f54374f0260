package decisions

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// The encoding/json renderers the streaming exports replaced: the
// oracles they must match byte for byte, errors included.

func encodeRef(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func writeJSONRef(w io.Writer, r *Recorder) error {
	doc := Export{
		Total:   r.Total(),
		Dropped: r.Dropped(),
		Counts:  r.Counts(),
		Freezes: r.Freezes(),
		Records: r.Snapshot(),
		Dumps:   r.Dumps(),
	}
	if doc.Counts == nil {
		doc.Counts = map[string]int{}
	}
	if doc.Records == nil {
		doc.Records = []Record{}
	}
	return encodeRef(w, doc)
}

func writeChainJSONRef(w io.Writer, r *Recorder, req int) error {
	chain := r.Chain(req)
	if chain == nil {
		chain = []Record{}
	}
	return encodeRef(w, ChainExport{Req: req, Chain: chain})
}

func writeMatchJSONRef(w io.Writer, r *Recorder, matched []Record) error {
	doc := MatchExport{
		Total:   r.Total(),
		Dropped: r.Dropped(),
		Matched: len(matched),
		Counts:  r.Counts(),
		Records: matched,
	}
	if doc.Counts == nil {
		doc.Counts = map[string]int{}
	}
	if doc.Records == nil {
		doc.Records = []Record{}
	}
	return encodeRef(w, doc)
}

// assertSame: a streamed document and its reference agree — same
// bytes, or both fail having written nothing.
func assertSame(t *testing.T, name string, write, ref func(io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	refErr := ref(&want)
	err := write(&got)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
	case err != nil:
		if got.Len() != 0 || want.Len() != 0 {
			t.Fatalf("%s: failed after writing %d bytes (reference %d)", name, got.Len(), want.Len())
		}
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: streaming export differs from reference at byte %d:\n got  …%q\n want …%q",
			name, i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// assertDecisionsMatchRef compares every document the recorder renders
// with its reference: the full export, a known and an unknown request's
// chain, and a match of every other ring record.
func assertDecisionsMatchRef(t *testing.T, name string, r *Recorder) {
	t.Helper()
	assertSame(t, name+": export", r.WriteJSON, func(w io.Writer) error { return writeJSONRef(w, r) })
	for _, req := range []int{0, 1 << 20} {
		assertSame(t, fmt.Sprintf("%s: chain %d", name, req),
			func(w io.Writer) error { return r.WriteChainJSON(w, req) },
			func(w io.Writer) error { return writeChainJSONRef(w, r, req) })
	}
	var matched []Record
	for i, rec := range r.Snapshot() {
		if i%2 == 0 {
			matched = append(matched, rec)
		}
	}
	assertSame(t, name+": match",
		func(w io.Writer) error { return r.WriteMatchJSON(w, matched) },
		func(w io.Writer) error { return writeMatchJSONRef(w, r, matched) })
}

// Shape bits of fuzzRecorder.
const (
	shapeNil        = 1 << iota // a nil recorder
	shapeInputs                 // records carry inputs ...
	shapeEmptyLists             // ... or, without shapeInputs, empty (not nil) input and candidate lists
	shapeCandidates             // records carry candidates
	shapeTyped                  // every other record goes through Body and Emit, with typed candidates
)

// fuzzRecorder builds a recorder from fuzz inputs: n records in a ring
// of ringCap, then freezes dumps, with s1 and s2 in every string field
// and x seeding every time. Kinds include one outside the name table.
func fuzzRecorder(s1, s2 string, x float64, ringCap, n, freezes uint8, shape uint) *Recorder {
	if shape&shapeNil != 0 {
		return nil
	}
	r := NewRecorder(int(ringCap%6) + 1)
	for i := 0; i < int(n%24); i++ {
		rec := Record{
			Time: x * float64(i), Kind: Kind(i % (int(numKinds) + 1)),
			Req: i%3 - 1, Attempt: i % 2, Outcome: s2,
		}
		if i%2 == 0 {
			rec.Func, rec.Subject, rec.Rule = s1, s2, s1+s2
		}
		switch {
		case shape&shapeInputs != 0:
			rec.Inputs = []KV{{K: s1, V: s2}, {K: "rate", V: fmt.Sprint(x)}}
		case shape&shapeEmptyLists != 0:
			rec.Inputs, rec.Candidates = []KV{}, []Candidate{}
		}
		if shape&shapeCandidates != 0 {
			rec.Candidates = []Candidate{{ID: s2, Reason: s1}}
		}
		if shape&shapeTyped != 0 && i%2 == 1 {
			// Reason(3) is outside the reason table.
			ids := []ID{r.Intern(s1), r.Intern(s2), NoID}
			cands := []Cand{
				{ID: ids[i%3], Reason: Reason(i % 4), N: int32(i), M: int32(n)},
				{ID: ids[(i+1)%3], Reason: ReasonRetiring},
			}
			r.Emit(rec.Time, r.Body(rec), rec.Req, rec.Attempt, ids[(i+2)%3], cands[:i%3])
			continue
		}
		r.Record(rec)
	}
	for i := 0; i < int(freezes%(maxDumps+4)); i++ {
		r.Freeze(x+float64(i), s1)
	}
	return r
}

// FuzzDecisionsJSON: every streamed decision document is byte-identical
// to its encoding/json reference, and fails exactly when it does (a NaN
// or infinite record or dump time), writing nothing.
func FuzzDecisionsJSON(f *testing.F) {
	strs := []string{"bert", "héllo ✓", "<a&b>", "\u2028x\u2029", "bad\xff\xfeutf8", "cut\xe2\x82",
		`say "hi" C:\x`, "tab\tnl\nbell\x07\x7f"}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, 1.5}
	f.Add("admit", "ok", 1.5, uint8(4), uint8(0), uint8(0), uint(0))                            // empty ring
	f.Add("admit", "ok", 1.5, uint8(3), uint8(11), uint8(1), uint(shapeInputs|shapeCandidates)) // wrapped ring
	f.Add("q", "burn", 0.25, uint8(5), uint8(20), uint8(maxDumps+3), uint(shapeEmptyLists))     // > maxDumps freezes
	f.Add("", "", 0.0, uint8(0), uint8(5), uint8(2), uint(shapeNil))                            // nil recorder
	for i, s := range strs {
		f.Add(s, strs[(i+3)%len(strs)], floats[i%len(floats)], uint8(i), uint8(3*i+1), uint8(i%3), uint(i%8)&^shapeNil)
		f.Add(s, strs[(i+5)%len(strs)], floats[i%len(floats)], uint8(i+2), uint8(3*i+7), uint8(i%2), uint(i%8)&^shapeNil|shapeTyped)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("f", "x", v, uint8(5), uint8(4), uint8(0), uint(shapeInputs))
		f.Add("f", "x", v, uint8(5), uint8(0), uint8(2), uint(0)) // dump time only
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, x float64, ringCap, n, freezes uint8, shape uint) {
		assertDecisionsMatchRef(t, "fuzz", fuzzRecorder(s1, s2, x, ringCap, n, freezes, shape))
	})
}

// TestDecisionsJSONNonFinite: a NaN or infinite record time fails every
// document that carries the record, and a non-finite dump time fails
// the export, before a byte is written.
func TestDecisionsJSONNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := NewRecorder(8)
		r.Record(Record{Time: 1, Kind: KindAdmit, Req: 0, Outcome: "ok"})
		r.Record(Record{Time: v, Kind: KindRetry, Req: 0, Outcome: "retry"})
		var buf bytes.Buffer
		for name, write := range map[string]func(io.Writer) error{
			"export": r.WriteJSON,
			"chain":  func(w io.Writer) error { return r.WriteChainJSON(w, 0) },
			"match":  func(w io.Writer) error { return r.WriteMatchJSON(w, r.Snapshot()) },
		} {
			buf.Reset()
			if err := write(&buf); err == nil || buf.Len() != 0 {
				t.Errorf("record time %v, %s: err=%v after %d bytes, want an error and no output", v, name, err, buf.Len())
			}
		}
		assertDecisionsMatchRef(t, fmt.Sprintf("record time %v", v), r)

		d := NewRecorder(8)
		d.Record(Record{Time: 1, Kind: KindQuarantine, Req: NoRequest, Outcome: "quarantined"})
		d.Freeze(v, "anomaly")
		buf.Reset()
		if err := d.WriteJSON(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("dump time %v: err=%v after %d bytes, want an error and no output", v, err, buf.Len())
		}
		assertDecisionsMatchRef(t, fmt.Sprintf("dump time %v", v), d)
	}
}

// TestDecisionsJSONAllocs: the exports allocate a constant amount (the
// writer and the recorder's snapshot copies) — 10k records cost no more
// allocations than 100.
func TestDecisionsJSONAllocs(t *testing.T) {
	build := func(n int) *Recorder {
		r := NewRecorder(n)
		inputs := []KV{{K: "pressure", V: "0.5"}, {K: "sig", V: "4g+2g"}}
		for i := 0; i < n; i++ {
			r.Record(Record{Time: float64(i) * 0.01, Kind: Kind(i % int(numKinds)), Func: "bert",
				Req: i % 50, Attempt: i % 2, Subject: "gpu0/4g.40gb#0", Rule: "route-exclusive",
				Outcome: "admitted", Inputs: inputs,
				Candidates: []Candidate{{ID: "gpu1/1g.10gb#0", Reason: "too small"}}})
		}
		r.Freeze(1, "slo-burn: 1 pages")
		return r
	}
	measure := func(r *Recorder) (export, chain float64) {
		export = testing.AllocsPerRun(5, func() {
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		chain = testing.AllocsPerRun(5, func() {
			if err := r.WriteChainJSON(io.Discard, 7); err != nil {
				t.Fatal(err)
			}
		})
		return export, chain
	}
	se, sc := measure(build(100))
	le, lc := measure(build(10000))
	if le > se || le > 12 || lc > sc || lc > 10 {
		t.Errorf("allocs: export %v / chain %v for 10k records vs %v / %v for 100; want a constant, independent of size",
			le, lc, se, sc)
	}
}
