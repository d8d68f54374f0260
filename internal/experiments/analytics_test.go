package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunAnalyticsDeterministic: the span-analytics study regenerates
// byte-identical reports and snapshots for a given seed, and the report
// actually covers the run.
func TestRunAnalyticsDeterministic(t *testing.T) {
	var reports, snaps [2][]byte
	for i := 0; i < 2; i++ {
		ar := RunAnalytics(shortCfg())
		var b bytes.Buffer
		if err := ar.Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		reports[i] = b.Bytes()
		s, err := json.Marshal(ar.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = s

		if ar.Report.Requests != ar.Result.Total {
			t.Errorf("report covers %d requests, run recorded %d",
				ar.Report.Requests, ar.Result.Total)
		}
		if len(ar.Report.Blame) != len(appsFor(Medium)) {
			t.Errorf("blame rows = %d, want one per app (%d)",
				len(ar.Report.Blame), len(appsFor(Medium)))
		}
		if len(ar.Snapshot.Slices) == 0 || len(ar.Snapshot.Functions) == 0 {
			t.Error("platform snapshot is empty")
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("analytics reports differ across same-seed runs")
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("platform snapshots differ across same-seed runs")
	}
}

// TestAnalyticsTablesRender: every table renders with its full header
// and one row per function.
func TestAnalyticsTablesRender(t *testing.T) {
	ar := RunAnalytics(shortCfg())
	apps := len(appsFor(Medium))
	for _, tb := range []Table{
		AnalyticsBlameTable(ar.Report),
		AnalyticsStragglerTable(ar.Report),
		AnalyticsBurnTable(ar.Report),
		AnalyticsDriftTable(ar.Report),
	} {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row arity %d != header %d", tb.Title, len(row), len(tb.Header))
			}
		}
	}
	if rows := len(AnalyticsBlameTable(ar.Report).Rows); rows != apps {
		t.Errorf("blame table rows = %d, want %d", rows, apps)
	}
}

// TestWriteBenchJSONDeterministic: the machine-readable bench document
// is valid JSON, covers the full matrix in fixed order, carries the
// engine self-telemetry, and is byte-stable across identical inputs.
func TestWriteBenchJSONDeterministic(t *testing.T) {
	cfg := shortCfg()
	e2e := RunEndToEnd(cfg)
	ar := RunAnalytics(cfg)

	var docs [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteBenchJSON(&docs[i], "test", e2e, ar.Report, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Error("bench JSON differs across identical inputs")
	}

	var doc BenchDoc
	if err := json.Unmarshal(docs[0].Bytes(), &doc); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if want := len(Workloads) * len(systemsOrder()); len(doc.Runs) != want {
		t.Fatalf("runs = %d, want %d", len(doc.Runs), want)
	}
	if doc.Runs[0].Workload != "light" || doc.Runs[0].System != "infless" {
		t.Errorf("first run = %s/%s, want light/infless", doc.Runs[0].Workload, doc.Runs[0].System)
	}
	last := doc.Runs[len(doc.Runs)-1]
	if last.Workload != "heavy" || last.System != "fluidfaas" {
		t.Errorf("last run = %s/%s, want heavy/fluidfaas", last.Workload, last.System)
	}
	if doc.Analytics == nil || len(doc.Analytics.Blame) == 0 {
		t.Error("bench JSON has no analytics section")
	}
	for _, r := range doc.Runs {
		if r.Total <= 0 || r.LatencyP50 <= 0 {
			t.Errorf("run %s/%s has empty metrics: %+v", r.Workload, r.System, r)
		}
	}

	var raw struct {
		Engine map[string]float64 `json:"engine"`
	}
	if err := json.Unmarshal(docs[0].Bytes(), &raw); err != nil {
		t.Fatalf("engine section does not parse: %v", err)
	}
	if raw.Engine["events"] <= 0 || raw.Engine["events_per_sec"] <= 0 {
		t.Errorf("engine self-telemetry missing or empty: %v", raw.Engine)
	}
}
