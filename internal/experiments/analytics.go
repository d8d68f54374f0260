package experiments

import (
	"fmt"

	"fluidfaas/internal/obs"
	"fluidfaas/internal/obs/analytics"
	"fluidfaas/internal/obs/util"
	"fluidfaas/internal/platform"
	"fluidfaas/internal/scheduler"
)

// obsRecorder ensures cfg carries a recorder and returns it.
func obsRecorder(cfg *Config) *obs.Recorder {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRecorder()
	}
	return cfg.Obs
}

// FinishObservers is fluidfaas-sim's post-run sequence over the
// observers cfg attached to run r, each step skipped when its observer
// is nil: set the two lifecycle-event gauges on cfg.Obs, check the
// ledger's conservation invariant and resolve its report, analyse the
// run, and freeze the decision ring at cfg.Duration when the
// analysis paged on an SLO burn, so the decisions export dumps what the
// scheduler was deciding then. Call it once, before any export.
func FinishObservers(cfg Config, r SystemResult) (*analytics.Report, *util.Report, error) {
	var utilRep *util.Report
	if l := cfg.Util; l != nil {
		if err := l.Check(); err != nil {
			return nil, nil, err
		}
		utilRep = l.Report()
	}
	rec := cfg.Obs
	if rec == nil {
		return nil, utilRep, nil
	}
	rec.SetGauge("fluidfaas_events_dropped", float64(r.EventsDropped))
	rec.SetGauge("fluidfaas_events_published_total", float64(r.EventsTotal))
	report := analytics.Analyze(analytics.Config{}, rec)
	pages := 0
	for _, b := range report.Burn {
		pages += b.Pages
	}
	if pages > 0 && cfg.Decisions != nil {
		cfg.Decisions.Freeze(cfg.Duration, fmt.Sprintf("slo-burn: %d pages", pages))
	}
	return report, utilRep, nil
}

// The span-analytics study: one instrumented FluidFaaS run whose request
// records and span log are decomposed into per-function latency blame
// tables, profile-drift ratios and SLO burn-rate alerts. The analysis is a pure
// post-run observer — the run itself is bit-for-bit the same as an
// uninstrumented one — and deterministic, so the tables regenerate
// identically for a given seed.

// AnalyticsResult bundles one instrumented run with its analysis.
type AnalyticsResult struct {
	Result   SystemResult
	Report   *analytics.Report
	Snapshot platform.Snapshot
}

// RunAnalytics executes one instrumented FluidFaaS run on the medium
// workload under cfg and analyses it. Set cfg.MaxBatch > 1 to
// make the drift detector earn its keep: batched stage executions run
// n^gamma longer than the declared per-request profile, exactly the
// divergence it watches for.
func RunAnalytics(cfg Config) AnalyticsResult {
	cfg = cfg.withDefaults()
	rec := obsRecorder(&cfg)
	var snap platform.Snapshot
	prev := cfg.OnPlatform
	cfg.OnPlatform = func(p *platform.Platform) {
		snap = p.Snapshot()
		if prev != nil {
			prev(p)
		}
	}
	r := RunSystem(&scheduler.FluidFaaS{}, Medium, cfg)
	return AnalyticsResult{
		Result:   r,
		Report:   analytics.Analyze(analytics.Config{}, rec),
		Snapshot: snap,
	}
}

// AnalyticsBlameTable renders the per-function critical-path blame
// table: where each function's mean end-to-end latency goes, and which
// component dominates.
func AnalyticsBlameTable(rp *analytics.Report) Table {
	t := Table{
		Title: "Span analytics: critical-path blame per function (mean seconds)",
		Header: []string{"app", "reqs", "latency", "p99",
			"queue", "load", "exec", "transfer", "retry", "dominant"},
	}
	for _, b := range rp.Blame {
		t.Rows = append(t.Rows, []string{
			b.Func, itoa(b.Requests), f3(b.MeanLatency), f3(b.P99Latency),
			f3(b.Mean.Queue), f3(b.Mean.Load), f3(b.Mean.Exec),
			f3(b.Mean.Transfer), f3(b.Mean.Retry),
			fmt.Sprintf("%s (%s)", b.Dominant, pct(b.Share)),
		})
	}
	return t
}

// AnalyticsStragglerTable renders the straggler report: requests past
// their function's p99 and the component that made each slow.
func AnalyticsStragglerTable(rp *analytics.Report) Table {
	t := Table{
		Title:  "Span analytics: stragglers (past their function's p99)",
		Header: []string{"app", "req", "arrival", "latency", "outcome", "top component"},
	}
	for _, s := range rp.Stragglers {
		t.Rows = append(t.Rows, []string{
			s.Func, itoa(s.Req), f1(s.Arrival), f3(s.Latency), s.Outcome, s.Top,
		})
	}
	if len(t.Rows) == 0 {
		t.Rows = append(t.Rows, []string{"-", "-", "-", "-", "-", "-"})
	}
	return t
}

// AnalyticsDriftTable renders the profile-drift ratios: observed vs
// declared stage execution time per (function, stage, slice type).
func AnalyticsDriftTable(rp *analytics.Report) Table {
	t := Table{
		Title:  "Span analytics: profile drift (EWMA observed/declared)",
		Header: []string{"key", "ratio", "declared", "last obs", "samples", "flagged"},
	}
	for _, d := range rp.Drift {
		flag := ""
		if d.Flagged {
			flag = "DRIFT"
		}
		t.Rows = append(t.Rows, []string{
			d.Key.String(), f2(d.Ratio), f3(d.Declared), f3(d.LastObserved),
			itoa(d.Samples), flag,
		})
	}
	return t
}

// AnalyticsBurnTable renders the SLO burn-rate monitor's end state and
// alert activity per function.
func AnalyticsBurnTable(rp *analytics.Report) Table {
	t := Table{
		Title: "Span analytics: SLO burn rates (multi-window, budget-relative)",
		Header: []string{"app", "budget", "burn 5m", "burn 1h",
			"misses", "total", "pages", "warns", "active"},
	}
	for _, s := range rp.Burn {
		t.Rows = append(t.Rows, []string{
			s.Func, f3(s.Budget), f1(s.ShortBurn), f1(s.LongBurn),
			itoa(s.Misses), itoa(s.Total), itoa(s.Pages), itoa(s.Warns), s.Active,
		})
	}
	return t
}
