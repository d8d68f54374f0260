package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// simCell is one run of the fluidfaas-sim default cell (FluidFaaS,
// medium, P1, seed 42) for 30 s with all three recorders attached,
// post-processed the way the CLI does before it writes exports or
// serves introspection.
type simCell struct {
	cfg    Config
	p      *platform.Platform
	report *analytics.Report
	util   *util.Report
}

func runSimCell(t *testing.T) simCell {
	t.Helper()
	c := simCell{cfg: DefaultConfig()}
	c.cfg.Duration = 30
	c.cfg.GPUConfigs = mig.UniformNode(mig.ConfigP1, 8)
	c.cfg.Obs = obs.NewRecorder()
	c.cfg.Decisions = decisions.NewRecorder(0)
	c.cfg.Util = util.NewLedger()
	c.cfg.OnPlatform = func(p *platform.Platform) { c.p = p }
	r := RunSystem(&scheduler.FluidFaaS{}, Medium, c.cfg)
	c.cfg.Obs.SetGauge("fluidfaas_events_dropped", float64(r.EventsDropped))
	c.cfg.Obs.SetGauge("fluidfaas_events_published_total", float64(r.EventsTotal))
	if err := c.cfg.Util.Check(); err != nil {
		t.Fatal(err)
	}
	c.util = c.cfg.Util.Report()
	c.report = analytics.Analyze(analytics.Config{}, c.cfg.Obs)
	pages := 0
	for _, b := range c.report.Burn {
		pages += b.Pages
	}
	if pages > 0 {
		c.cfg.Decisions.Freeze(c.cfg.Duration, fmt.Sprintf("slo-burn: %d pages", pages))
	}
	return c
}

// exports renders the files the CLI writes: -trace-out, -metrics-out,
// -util-out and -decisions-out.
func (c simCell) exports(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, write := range map[string]func(io.Writer) error{
		"trace":     func(w io.Writer) error { return obs.WriteChromeTrace(w, c.cfg.Obs) },
		"metrics":   func(w io.Writer) error { return obs.WritePrometheus(w, c.cfg.Obs) },
		"util":      c.util.WriteJSON,
		"decisions": c.cfg.Decisions.WriteJSON,
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		out[name] = b.Bytes()
	}
	return out
}

// TestSimExportsAndIntrospection: the CLI's default cell writes
// byte-identical exports twice, and its introspection server answers
// every endpoint with a populated document.
func TestSimExportsAndIntrospection(t *testing.T) {
	c := runSimCell(t)
	first, second := c.exports(t), runSimCell(t).exports(t)
	for name, b := range first {
		if len(b) == 0 {
			t.Errorf("%s export is empty", name)
		}
		if !bytes.Equal(b, second[name]) {
			t.Errorf("%s export differs across two identical runs", name)
		}
	}

	srv := httptest.NewServer(analytics.Handler(analytics.ServerOptions{
		Recorder:  c.cfg.Obs,
		Report:    c.report,
		State:     c.p.Snapshot(),
		Decisions: c.cfg.Decisions,
		Util:      c.util,
	}))
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	getJSON := func(path string, v any) {
		t.Helper()
		if err := json.Unmarshal(get(path), v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var rep analytics.Report
	getJSON("/analytics", &rep)
	if rep.Requests <= 0 || len(rep.Blame) == 0 {
		t.Errorf("/analytics: requests %d, blame rows %d", rep.Requests, len(rep.Blame))
	}

	var st platform.Snapshot
	getJSON("/state", &st)
	if len(st.Slices) == 0 || len(st.Functions) == 0 {
		t.Errorf("/state: %d slices, %d functions", len(st.Slices), len(st.Functions))
	}
	p := c.p
	want := platform.Counters{
		Launched: p.Launched(), Evicted: p.Evictions(), Migrated: p.Migrations(),
		Faults: p.FaultsInjected(), Recoveries: p.Recoveries(), Retries: p.Retries(),
		Rejected: p.Rejected(), SwapIns: p.SwapIns(), SwapOuts: p.SwapOuts(),
	}
	if st.Counters != want || want.Launched == 0 {
		t.Errorf("/state counters %+v, accessors %+v", st.Counters, want)
	}

	var dec decisions.Export
	getJSON("/decisions", &dec)
	if dec.Total <= 0 {
		t.Errorf("/decisions: total %d", dec.Total)
	}
	var admits decisions.Export
	getJSON("/decisions?kind=admit&limit=1", &admits)
	if len(admits.Records) != 1 {
		t.Fatalf("/decisions?kind=admit&limit=1: %d records", len(admits.Records))
	}
	var why decisions.ChainExport
	getJSON(fmt.Sprintf("/why?req=%d", admits.Records[0].Req), &why)
	if len(why.Chain) == 0 {
		t.Fatalf("/why?req=%d: empty chain", admits.Records[0].Req)
	}
	if k := why.Chain[0].Kind; k != decisions.KindAdmit && k != decisions.KindReject {
		t.Errorf("/why: chain opens with %v, want admit or reject", k)
	}

	var ur struct {
		Slices       []json.RawMessage  `json:"slices"`
		Cluster      map[string]float64 `json:"cluster"`
		SliceSeconds float64            `json:"slice_seconds"`
	}
	getJSON("/util", &ur)
	sum := 0.0
	for _, v := range ur.Cluster {
		sum += v
	}
	if len(ur.Slices) == 0 || ur.SliceSeconds <= 0 ||
		math.Abs(sum-ur.SliceSeconds) >= 1e-6*ur.SliceSeconds {
		t.Errorf("/util: %d slices, cluster states sum to %v of %v slice-seconds",
			len(ur.Slices), sum, ur.SliceSeconds)
	}

	if body := string(get("/heatmap")); !strings.Contains(body, "where did the GPU-seconds go") {
		t.Errorf("/heatmap: no heatmap title in %.80q", body)
	}
	metrics := string(get("/metrics"))
	for _, series := range []string{"fluidfaas_requests_total", "fluidfaas_util_state_seconds"} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics: no %s series", series)
		}
	}
}
