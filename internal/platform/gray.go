package platform

import (
	"fmt"
	"sort"

	"fluidfaas/internal/metrics"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
)

// This file is the platform's defence against gray failures: hardware
// that keeps answering but answers slowly. A degraded slice (see
// faults.SliceDegraded) stretches every execution, load and transfer it
// serves by the fault's severity. Fail-stop machinery never notices —
// nothing crashes — so detection has to come from timing evidence: a
// per-slice health score tracks the EWMA of the observed-vs-declared
// execution ratio and classifies the slice healthy -> suspect ->
// quarantined with hysteresis. Quarantined slices leave the placement
// views (mig.Slice.SetQuarantined) and their owners are torn down
// through the ordinary fault paths, so pipelines migrate off degraded
// hardware exactly like they migrate off dead hardware; after a
// probation period the slice is readmitted as suspect and must re-earn
// a healthy score. Requests at deadline risk on a *suspect* slice may
// additionally launch a hedged duplicate (hedge.go).
//
// Everything here is inert unless Options.Gray.Enabled is set: with the
// zero options a run is bit-for-bit identical to one built before this
// file existed (enforced by TestGrayDisabledIdentity).

// GrayOptions configure gray-failure detection and mitigation.
type GrayOptions struct {
	// Enabled turns the health scorer (and, with Hedge, hedged retries)
	// on. Off, no observation is recorded and no slice is ever
	// suspected or quarantined; degraded-slice faults still slow the
	// afflicted slice, which is exactly the no-mitigation baseline the
	// gray experiment measures.
	Enabled bool
	// Alpha is the EWMA smoothing factor of the health score: score =
	// (1-Alpha)*score + Alpha*(observed/declared exec) (default 0.35 —
	// a handful of slow executions flags the slice, one outlier does
	// not).
	Alpha float64
	// SuspectRatio is the score at which a healthy slice becomes
	// suspect (default 1.3: executions run 30% over profile).
	SuspectRatio float64
	// QuarantineRatio is the score at which a suspect slice is
	// quarantined (default 2.0).
	QuarantineRatio float64
	// RecoverRatio is the score a suspect slice must stay at or below
	// for RecoverDwell seconds to be cleared back to healthy (default
	// 1.15). The gap below SuspectRatio is the hysteresis band that
	// stops flapping.
	RecoverRatio float64
	// MinSamples is how many observations a slice needs before it can
	// be suspected — a single slow first execution is not evidence
	// (default 3).
	MinSamples int
	// RecoverDwell is how long a suspect slice's score must stay at or
	// below RecoverRatio before it is cleared (default 5 s).
	RecoverDwell float64
	// Probation is how long a quarantined slice sits out before being
	// readmitted as suspect. Quarantined slices serve no traffic, so
	// without a timed probation the score could never recover (default
	// 30 s).
	Probation float64
	// Hedge enables hedged retries: a request at deadline risk on a
	// suspect slice is duplicated onto healthy hardware, the first
	// completion wins, and the loser is cancelled (hedge.go).
	Hedge bool
	// HedgeBudget bounds the per-function hedge rate: a function may
	// hold at most HedgeBudget hedges per completed request (default
	// 0.1, i.e. at most ~10% duplicate launches).
	HedgeBudget float64
}

func (g *GrayOptions) fillDefaults() {
	if g.Alpha <= 0 || g.Alpha > 1 {
		g.Alpha = 0.35
	}
	if g.SuspectRatio <= 1 {
		g.SuspectRatio = 1.3
	}
	if g.QuarantineRatio <= g.SuspectRatio {
		g.QuarantineRatio = 2.0
		if g.QuarantineRatio <= g.SuspectRatio {
			g.QuarantineRatio = 2 * g.SuspectRatio
		}
	}
	if g.RecoverRatio <= 0 || g.RecoverRatio >= g.SuspectRatio {
		g.RecoverRatio = 1.15
		if g.RecoverRatio >= g.SuspectRatio {
			g.RecoverRatio = 0.9 * g.SuspectRatio
		}
	}
	if g.MinSamples <= 0 {
		g.MinSamples = 3
	}
	if g.RecoverDwell <= 0 {
		g.RecoverDwell = 5
	}
	if g.Probation <= 0 {
		g.Probation = 30
	}
	if g.HedgeBudget <= 0 {
		g.HedgeBudget = 0.1
	}
}

// grayOn reports whether the health scorer is active.
func (p *Platform) grayOn() bool { return p.opts.Gray.Enabled }

// hedgeOn reports whether hedged retries may launch.
func (p *Platform) hedgeOn() bool { return p.opts.Gray.Enabled && p.opts.Gray.Hedge }

// Health-score states of a slice.
const (
	sliceHealthy = iota
	sliceSuspect
	sliceQuarantinedState
)

// sliceHealth is the scorer's per-slice state.
type sliceHealth struct {
	score   float64
	samples int
	state   int
	// belowSince is when the score last dropped to RecoverRatio or
	// below while suspect; -1 when not in a recovery streak.
	belowSince float64
}

// degradeFactor returns the slowdown multiplier a gray-degraded slice
// currently imposes (1 when the slice is fine). Every execution, load
// and transfer on the slice is multiplied by it; ×1.0 is exact in IEEE
// arithmetic, so fault-free runs stay bit-identical.
func (p *Platform) degradeFactor(sl *mig.Slice) float64 {
	if len(p.degraded) == 0 {
		return 1
	}
	if f, ok := p.degraded[sl]; ok {
		return f
	}
	return 1
}

// degradeLoadFactor is the worst degradation factor across a pipeline's
// slices — the initial load is only done when every stage's weights are
// in place, so the slowest slice gates it.
func (p *Platform) degradeLoadFactor(slices []*mig.Slice) float64 {
	f := 1.0
	for _, sl := range slices {
		if g := p.degradeFactor(sl); g > f {
			f = g
		}
	}
	return f
}

// observeSliceExec feeds one execution observation into the slice's
// health score and runs the healthy/suspect/quarantined classification.
// declared is the profiled execution time, observed what the slice
// actually took; their ratio is the scored signal. No-op unless the
// gray subsystem is enabled.
func (p *Platform) observeSliceExec(sl *mig.Slice, declared, observed float64) {
	if !p.grayOn() || declared <= 0 || observed <= 0 {
		return
	}
	g := &p.opts.Gray
	h := p.health[sl]
	if h == nil {
		h = &sliceHealth{belowSince: -1}
		p.health[sl] = h
	}
	ratio := observed / declared
	if h.samples == 0 {
		h.score = ratio
	} else {
		h.score = (1-g.Alpha)*h.score + g.Alpha*ratio
	}
	h.samples++
	now := p.eng.Now()
	switch h.state {
	case sliceHealthy:
		if h.samples >= g.MinSamples && h.score >= g.SuspectRatio {
			h.state = sliceSuspect
			h.belowSince = -1
			p.suspects++
			p.logEvent(EvSliceSuspect, sl.ID(),
				fmt.Sprintf("health score %.2f over %.2f", h.score, g.SuspectRatio))
			if p.decOn() {
				p.decide(decisions.Record{
					Kind: decisions.KindSuspect, Req: decisions.NoRequest,
					Subject: sl.ID(), Rule: "EWMA score over suspect threshold",
					Outcome: "healthy -> suspect",
					Inputs: []decisions.KV{
						kvF("score", h.score),
						kvF("threshold", g.SuspectRatio),
						kvI("samples", h.samples),
					},
				})
			}
		}
	case sliceSuspect:
		switch {
		case h.score >= g.QuarantineRatio:
			p.quarantineSlice(sl, h)
		case h.score <= g.RecoverRatio:
			if h.belowSince < 0 {
				h.belowSince = now
			}
			if now-h.belowSince >= g.RecoverDwell {
				h.state = sliceHealthy
				h.belowSince = -1
				p.logEvent(EvRecover, sl.ID(),
					fmt.Sprintf("health score %.2f back under %.2f", h.score, g.RecoverRatio))
				if p.decOn() {
					p.decide(decisions.Record{
						Kind: decisions.KindSuspect, Req: decisions.NoRequest,
						Subject: sl.ID(), Rule: "recovery dwell satisfied",
						Outcome: "suspect -> healthy",
						Inputs: []decisions.KV{
							kvF("score", h.score),
							kvF("threshold", g.RecoverRatio),
							kvF("dwell", g.RecoverDwell),
						},
					})
				}
			}
		default:
			// Score in the hysteresis band: the recovery streak breaks.
			h.belowSince = -1
		}
	}
	// Quarantined slices serve no traffic; a straggling observation
	// (completion that raced the quarantine) changes nothing.
}

// quarantineSlice pulls a suspect slice from placement: its owner is
// torn down through the fault paths (in-flight requests retry on
// healthy hardware, pipelines re-place elsewhere), its bindings' warmth
// stamps are voided, and a probation timer readmits it later.
func (p *Platform) quarantineSlice(sl *mig.Slice, h *sliceHealth) {
	h.state = sliceQuarantinedState
	h.belowSince = -1
	sl.SetQuarantined(true)
	p.logEvent(EvSliceQuarantine, sl.ID(),
		fmt.Sprintf("health score %.2f over %.2f", h.score, p.opts.Gray.QuarantineRatio))
	if p.decOn() {
		p.decide(decisions.Record{
			Kind: decisions.KindQuarantine, Req: decisions.NoRequest,
			Subject: sl.ID(), Rule: "EWMA score over quarantine threshold",
			Outcome: "suspect -> quarantined; owner torn down",
			Inputs: []decisions.KV{
				kvF("score", h.score),
				kvF("threshold", p.opts.Gray.QuarantineRatio),
				kvF("probation", p.opts.Gray.Probation),
			},
		})
	}
	p.tearDownQuarantined(sl)
	p.utilTouch(sl)
	// A quarantine is an anomaly: freeze the provenance ring after the
	// teardown so the dump carries the retries it caused.
	if p.decOn() {
		p.opts.Decisions.Freeze(p.eng.Now(), "quarantine "+sl.ID())
	}
	p.eng.After(p.opts.Gray.Probation, func() { p.liftQuarantine(sl) })
	// Torn-down demand must re-place on healthy hardware now, not at
	// the next control period.
	p.kickScaleUp()
}

// tearDownQuarantined evicts whatever owns the quarantined slice. The
// teardown reuses the fail-stop paths (failShared/failInstance), then
// additionally voids the affected functions' last-use stamps on the
// node: that warmth was earned on hardware whose timing lied, and the
// next launch must not trust it.
func (p *Platform) tearDownQuarantined(sl *mig.Slice) {
	if sl.Free() {
		return
	}
	inv := p.inv[sl.GPU.Node]
	for _, ss := range inv.shared {
		if ss.slice == sl {
			fns := make([]*Function, 0, len(ss.bindings))
			for _, b := range ss.bindings {
				fns = append(fns, b.fn)
			}
			p.failShared(ss)
			for _, fn := range fns {
				delete(fn.lastNodeUse, inv.node.ID)
			}
			return
		}
	}
	for _, fn := range p.funcs {
		for _, inst := range fn.instances {
			for _, s := range inst.slices {
				if s == sl {
					p.failInstance(inst)
					delete(fn.lastNodeUse, inst.node.ID)
					return
				}
			}
		}
	}
}

// liftQuarantine readmits a quarantined slice as suspect after its
// probation: it re-enters placement, but its score is parked at the
// suspect threshold so it must prove itself with genuinely fast
// executions (one slow probe re-quarantines it quickly).
func (p *Platform) liftQuarantine(sl *mig.Slice) {
	h := p.health[sl]
	if h == nil || h.state != sliceQuarantinedState {
		return
	}
	sl.SetQuarantined(false)
	p.utilTouch(sl)
	h.state = sliceSuspect
	h.score = p.opts.Gray.SuspectRatio
	h.samples = 0
	h.belowSince = -1
	p.logEvent(EvSliceSuspect, sl.ID(), "probation over: readmitted for probing")
	if p.decOn() {
		p.decide(decisions.Record{
			Kind: decisions.KindSuspect, Req: decisions.NoRequest,
			Subject: sl.ID(), Rule: "probation expired",
			Outcome: "quarantined -> suspect (must re-earn healthy)",
			Inputs:  []decisions.KV{kvF("score", h.score)},
		})
	}
	p.kickScaleUp()
}

// sampleHealth appends every scored slice's current health score to its
// timeline (called from sampleUtilization while the scorer is on). The
// walk is sorted by slice ID so the trace recorder's counter timeline
// (one "health" counter per slice hardware track) is deterministic.
func (p *Platform) sampleHealth(now float64) {
	ids := make([]string, 0, len(p.health))
	byID := make(map[string]*sliceHealth, len(p.health))
	for sl, h := range p.health {
		ids = append(ids, sl.ID())
		byID[sl.ID()] = h
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := byID[id]
		tl := p.HealthScores[id]
		if tl == nil {
			tl = &metrics.Timeline{}
			p.HealthScores[id] = tl
		}
		tl.Add(now, h.score)
		if r := p.opts.Obs; r != nil {
			r.Counter("health", "health", id, now, h.score)
		}
	}
}

// healthStateName names a scorer state for metrics labels.
func healthStateName(state int) string {
	switch state {
	case sliceSuspect:
		return "suspect"
	case sliceQuarantinedState:
		return "quarantined"
	}
	return "healthy"
}

// Suspects returns how many healthy->suspect transitions occurred.
func (p *Platform) Suspects() int { return p.suspects }

// Quarantines returns how many slices were quarantined.
func (p *Platform) Quarantines() int { return p.tally[EvSliceQuarantine] }

// DegradedActive returns how many slices are gray-degraded right now.
func (p *Platform) DegradedActive() int { return len(p.degraded) }
