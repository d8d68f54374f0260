package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"fluidfaas/internal/scheduler"
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

// TestRunSystemEngineTelemetry: every run result carries the sim
// engine's self-telemetry, the numbers fluidfaas-sim -engine-stats
// prints.
func TestRunSystemEngineTelemetry(t *testing.T) {
	r := RunSystem(&scheduler.FluidFaaS{}, Medium, shortCfg())
	if r.Engine.Executed == 0 || r.Engine.EventsPerSec <= 0 {
		t.Errorf("engine self-telemetry missing or empty: %+v", r.Engine)
	}
}
