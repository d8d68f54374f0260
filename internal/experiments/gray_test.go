package experiments

import "testing"

// TestGrayStudy: the gray-failure sweep must show the mitigation
// ordering (quarantine recovers attainment the blind run loses, hedging
// never hurts on top) and keep hedging inside its budget.
func TestGrayStudy(t *testing.T) {
	r := RunGray(shortCfg())
	if want := len(grayRates) * len(graySeverities); len(r.Sweep) != want {
		t.Fatalf("sweep has %d points, want %d", len(r.Sweep), want)
	}
	for _, p := range r.Sweep {
		for name, c := range map[string]GrayRun{
			"none": p.NoMitigation, "quar": p.QuarantineOnly, "q+h": p.QuarantineHedge,
		} {
			if c.Completed == 0 {
				t.Fatalf("rate %.2f sev %.1f %s: no completions", p.Rate, p.Severity, name)
			}
			if c.Degradations == 0 {
				t.Errorf("rate %.2f sev %.1f %s: no degradations injected", p.Rate, p.Severity, name)
			}
			if c.SLOHit < 0 || c.SLOHit > 1 {
				t.Errorf("rate %.2f sev %.1f %s: SLO hit %.3f out of range", p.Rate, p.Severity, name, c.SLOHit)
			}
		}
		// The no-mitigation run must record no mitigation activity.
		n := p.NoMitigation
		if n.Suspects != 0 || n.Quarantines != 0 || n.Hedges != 0 || n.WastedSec != 0 {
			t.Errorf("rate %.2f sev %.1f: unmitigated run shows gray activity %+v", p.Rate, p.Severity, n)
		}
		// Mitigation ordering, with a hair of tolerance for run-to-run
		// request-mix shifts: quarantine may not cost attainment, and
		// hedging may not cost attainment over quarantine alone.
		if p.QuarantineOnly.SLOHit < p.NoMitigation.SLOHit-0.01 {
			t.Errorf("rate %.2f sev %.1f: quarantine lowered SLO hit %.3f -> %.3f",
				p.Rate, p.Severity, p.NoMitigation.SLOHit, p.QuarantineOnly.SLOHit)
		}
		if p.QuarantineHedge.SLOHit < p.QuarantineOnly.SLOHit-0.01 {
			t.Errorf("rate %.2f sev %.1f: hedging lowered SLO hit %.3f -> %.3f",
				p.Rate, p.Severity, p.QuarantineOnly.SLOHit, p.QuarantineHedge.SLOHit)
		}
		h := p.QuarantineHedge
		if !h.BudgetOK {
			t.Errorf("rate %.2f sev %.1f: hedging blew its budget (%d hedges, %d completed)",
				p.Rate, p.Severity, h.Hedges, h.Completed)
		}
		if h.HedgeWins > h.Hedges {
			t.Errorf("rate %.2f sev %.1f: %d wins from %d hedges", p.Rate, p.Severity, h.HedgeWins, h.Hedges)
		}
		if h.WastedSec < 0 || h.WastedRatio < 0 {
			t.Errorf("rate %.2f sev %.1f: negative waste", p.Rate, p.Severity)
		}
	}
	// At the heaviest sweep point the blind run must measurably lose
	// attainment and quarantine must claw a real fraction back — that is
	// the study's reason to exist.
	worst := r.Sweep[len(r.Sweep)-1]
	healthy := r.Sweep[0].NoMitigation.SLOHit
	if worst.NoMitigation.SLOHit >= healthy {
		t.Logf("note: heaviest point (%.3f) did not undercut lightest (%.3f)",
			worst.NoMitigation.SLOHit, healthy)
	}
	gained := false
	for _, p := range r.Sweep {
		if p.QuarantineOnly.SLOHit > p.NoMitigation.SLOHit+0.005 {
			gained = true
		}
	}
	if !gained {
		t.Error("quarantine never improved SLO attainment anywhere in the sweep")
	}

	if tab := GrayTable(r); len(tab.Rows) != len(r.Sweep) {
		t.Errorf("GrayTable rows = %d, want %d", len(tab.Rows), len(r.Sweep))
	}
}
