package analytics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"fluidfaas/internal/obs/decisions"
)

// get fetches a path from the handler and returns status and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// refBody renders doc as the decision endpoints did with encoding/json:
// the oracle their streamed bodies must match byte for byte.
func refBody(t *testing.T, doc any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// refMatch is the reference /decisions body for a filter: the ring
// records keep selects, the newest limit of them (0 = all).
func refMatch(t *testing.T, dr *decisions.Recorder, keep func(decisions.Record) bool, limit int) string {
	t.Helper()
	kept := []decisions.Record{}
	for _, rec := range dr.Snapshot() {
		if keep(rec) {
			kept = append(kept, rec)
		}
	}
	if limit > 0 && len(kept) > limit {
		kept = kept[len(kept)-limit:]
	}
	counts := dr.Counts()
	if counts == nil {
		counts = map[string]int{}
	}
	return refBody(t, decisions.MatchExport{
		Total: dr.Total(), Dropped: dr.Dropped(), Matched: len(kept), Counts: counts, Records: kept,
	})
}

// TestServerEndpoints: the introspection handler serves Prometheus
// metrics, a JSON analytics report, and a JSON state snapshot.
func TestServerEndpoints(t *testing.T) {
	rec := synthRecorder()
	srv := httptest.NewServer(Handler(ServerOptions{
		Recorder: rec,
		Report:   Analyze(Config{}, rec),
		State:    map[string]int{"slices": 4},
	}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "fluidfaas_requests_total") {
		t.Errorf("/metrics: code %d body %.80q", code, body)
	}

	code, body = get(t, srv, "/analytics")
	if code != 200 {
		t.Fatalf("/analytics: code %d", code)
	}
	var rp Report
	if err := json.Unmarshal([]byte(body), &rp); err != nil {
		t.Fatalf("/analytics: not JSON: %v", err)
	}
	if rp.Requests != 80 || len(rp.Blame) != 2 {
		t.Errorf("/analytics: requests %d, blame %d", rp.Requests, len(rp.Blame))
	}

	code, body = get(t, srv, "/state")
	var st map[string]int
	if code != 200 || json.Unmarshal([]byte(body), &st) != nil || st["slices"] != 4 {
		t.Errorf("/state: code %d body %q", code, body)
	}

	if code, body = get(t, srv, "/"); code != 200 || !strings.Contains(body, "/analytics") {
		t.Errorf("index: code %d", code)
	}
	if code, _ = get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
	if code, _ = get(t, srv, "/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d, want 200", code)
	}
}

// TestServerEmpty: a server with nothing wired still answers every
// endpoint with valid documents.
func TestServerEmpty(t *testing.T) {
	srv := httptest.NewServer(Handler(ServerOptions{}))
	defer srv.Close()

	if code, _ := get(t, srv, "/metrics"); code != 200 {
		t.Errorf("/metrics: code %d", code)
	}
	code, body := get(t, srv, "/analytics")
	var rp Report
	if code != 200 || json.Unmarshal([]byte(body), &rp) != nil {
		t.Errorf("/analytics: code %d body %q", code, body)
	}
	if code, body := get(t, srv, "/state"); code != 200 || strings.TrimSpace(body) != "null" {
		t.Errorf("/state: code %d body %q", code, body)
	}
}

// TestServerDecisions: /decisions serves the full provenance export,
// honours kind/func/req/limit filters (rejecting malformed ones), and
// /why returns one request's ordered chain.
func TestServerDecisions(t *testing.T) {
	dr := decisions.NewRecorder(0)
	dr.Record(decisions.Record{Kind: decisions.KindAdmit, Req: 7, Func: "bert", Outcome: "admitted"})
	dr.Record(decisions.Record{Kind: decisions.KindHedgeSpawn, Req: 7, Func: "bert", Outcome: "duplicated"})
	dr.Record(decisions.Record{Kind: decisions.KindReject, Req: 9, Func: "gpt2", Outcome: "shed"})
	srv := httptest.NewServer(Handler(ServerOptions{Decisions: dr}))
	defer srv.Close()

	code, body := get(t, srv, "/decisions")
	var exp decisions.Export
	if code != 200 || json.Unmarshal([]byte(body), &exp) != nil {
		t.Fatalf("/decisions: code %d body %q", code, body)
	}
	if exp.Total != 3 || len(exp.Records) != 3 {
		t.Errorf("/decisions: total %d records %d, want 3/3", exp.Total, len(exp.Records))
	}

	var filtered struct {
		Matched int                `json:"matched"`
		Records []decisions.Record `json:"records"`
	}
	code, body = get(t, srv, "/decisions?kind=admit")
	if code != 200 || json.Unmarshal([]byte(body), &filtered) != nil {
		t.Fatalf("/decisions?kind=admit: code %d body %q", code, body)
	}
	if want := refMatch(t, dr, func(r decisions.Record) bool { return r.Kind == decisions.KindAdmit }, 0); body != want {
		t.Errorf("/decisions?kind=admit body:\n%s\nwant:\n%s", body, want)
	}
	if filtered.Matched != 1 || filtered.Records[0].Kind != decisions.KindAdmit {
		t.Errorf("kind filter: matched %d", filtered.Matched)
	}
	code, body = get(t, srv, "/decisions?func=bert&limit=1")
	if code != 200 || json.Unmarshal([]byte(body), &filtered) != nil {
		t.Fatalf("/decisions?func=bert&limit=1: code %d body %q", code, body)
	}
	if want := refMatch(t, dr, func(r decisions.Record) bool { return r.Func == "bert" }, 1); body != want {
		t.Errorf("/decisions?func=bert&limit=1 body:\n%s\nwant:\n%s", body, want)
	}
	if filtered.Matched != 1 || filtered.Records[0].Kind != decisions.KindHedgeSpawn {
		t.Errorf("func+limit filter: matched %d, want newest bert record", filtered.Matched)
	}
	code, body = get(t, srv, "/decisions?req=9")
	if code != 200 || json.Unmarshal([]byte(body), &filtered) != nil ||
		filtered.Matched != 1 || filtered.Records[0].Req != 9 {
		t.Errorf("req filter: code %d body %q", code, body)
	}
	if want := refMatch(t, dr, func(r decisions.Record) bool { return r.Req == 9 }, 0); body != want {
		t.Errorf("/decisions?req=9 body:\n%s\nwant:\n%s", body, want)
	}
	if code, _ = get(t, srv, "/decisions?kind=bogus"); code != 400 {
		t.Errorf("bad kind: code %d, want 400", code)
	}
	if code, _ = get(t, srv, "/decisions?limit=-1"); code != 400 {
		t.Errorf("bad limit: code %d, want 400", code)
	}

	code, body = get(t, srv, "/why?req=7")
	var chain decisions.ChainExport
	if code != 200 || json.Unmarshal([]byte(body), &chain) != nil {
		t.Fatalf("/why: code %d body %q", code, body)
	}
	if chain.Req != 7 || len(chain.Chain) != 2 ||
		chain.Chain[0].Kind != decisions.KindAdmit || chain.Chain[1].Kind != decisions.KindHedgeSpawn {
		t.Errorf("/why chain: %+v", chain)
	}
	if want := refBody(t, decisions.ChainExport{Req: 7, Chain: dr.Chain(7)}); body != want {
		t.Errorf("/why?req=7 body:\n%s\nwant:\n%s", body, want)
	}
	if code, _ = get(t, srv, "/why"); code != 400 {
		t.Errorf("/why without req: code %d, want 400", code)
	}
	if code, _ = get(t, srv, "/why?req=x"); code != 400 {
		t.Errorf("/why bad req: code %d, want 400", code)
	}

	// Nil recorder: both endpoints still serve valid empty documents.
	empty := httptest.NewServer(Handler(ServerOptions{}))
	defer empty.Close()
	code, body = get(t, empty, "/decisions")
	if code != 200 || json.Unmarshal([]byte(body), &exp) != nil || exp.Total != 0 {
		t.Errorf("nil /decisions: code %d body %q", code, body)
	}
	for _, path := range []string{"/decisions?kind=admit", "/decisions?limit=5"} {
		code, body = get(t, empty, path)
		if code != 200 || !strings.Contains(body, `"records": []`) {
			t.Errorf("nil %s: want empty records array, code %d body %q", path, code, body)
		}
		if want := refMatch(t, nil, func(decisions.Record) bool { return true }, 0); body != want {
			t.Errorf("nil %s body:\n%s\nwant:\n%s", path, body, want)
		}
	}
	code, body = get(t, empty, "/why?req=1")
	if code != 200 || json.Unmarshal([]byte(body), &chain) != nil || len(chain.Chain) != 0 {
		t.Errorf("nil /why: code %d body %q", code, body)
	}
}
