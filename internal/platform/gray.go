package platform

import (
	"fmt"

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
	// Hedge enables hedged retries: a request at deadline risk on a
	// suspect slice is duplicated onto healthy hardware, the first
	// completion wins, and the loser is cancelled (hedge.go).
	Hedge bool
}

// Health-scorer tuning.
const (
	// grayAlpha is the EWMA smoothing factor of the health score: score
	// = (1-grayAlpha)*score + grayAlpha*(observed/declared exec). A
	// handful of slow executions flags the slice, one outlier does not.
	grayAlpha float64 = 0.35
	// suspectRatio is the score at which a healthy slice becomes
	// suspect: executions run 30% over profile.
	suspectRatio float64 = 1.3
	// quarantineRatio is the score at which a suspect slice is
	// quarantined.
	quarantineRatio float64 = 2.0
	// recoverRatio is the score a suspect slice must stay at or below
	// for recoverDwell seconds to be cleared back to healthy. The gap
	// below suspectRatio is the hysteresis band that stops flapping.
	recoverRatio float64 = 1.15
	// grayMinSamples is how many observations a slice needs before it
	// can be suspected: a single slow first execution is not evidence.
	grayMinSamples = 3
	// recoverDwell is how long a suspect slice's score must stay at or
	// below recoverRatio before it is cleared (s).
	recoverDwell float64 = 5
	// grayProbation is how long a quarantined slice sits out before
	// being readmitted as suspect (s). Quarantined slices serve no
	// traffic, so without a timed probation the score could never
	// recover.
	grayProbation float64 = 30
)

// HedgeBudget bounds the per-function hedge rate: a function may hold
// at most HedgeBudget hedges per completed request, i.e. at most ~10%
// duplicate launches.
const HedgeBudget float64 = 0.1

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
	// belowSince is when the score last dropped to recoverRatio or
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
	h := p.health[sl]
	if h == nil {
		h = &sliceHealth{belowSince: -1}
		p.health[sl] = h
	}
	ratio := observed / declared
	if h.samples == 0 {
		h.score = ratio
	} else {
		h.score = (1-grayAlpha)*h.score + grayAlpha*ratio
	}
	h.samples++
	now := p.eng.Now()
	switch h.state {
	case sliceHealthy:
		if h.samples >= grayMinSamples && h.score >= suspectRatio {
			h.state = sliceSuspect
			h.belowSince = -1
			p.suspects++
			p.logEvent(EvSliceSuspect, sl.ID(),
				fmt.Sprintf("health score %.2f over %.2f", h.score, suspectRatio), transition{
					decision: func() decisions.Record {
						return decisions.Record{
							Kind: decisions.KindSuspect, Subject: sl.ID(),
							Rule: "EWMA score over suspect threshold", Outcome: "healthy -> suspect",
							Inputs: []decisions.KV{
								kvF("score", h.score),
								kvF("threshold", suspectRatio),
								kvI("samples", h.samples),
							},
						}
					},
				})
		}
	case sliceSuspect:
		switch {
		case h.score >= quarantineRatio:
			p.quarantineSlice(sl, h)
		case h.score <= recoverRatio:
			if h.belowSince < 0 {
				h.belowSince = now
			}
			if now-h.belowSince >= recoverDwell {
				h.state = sliceHealthy
				h.belowSince = -1
				p.logEvent(EvRecover, sl.ID(),
					fmt.Sprintf("health score %.2f back under %.2f", h.score, recoverRatio), transition{
						decision: func() decisions.Record {
							return decisions.Record{
								Kind: decisions.KindSuspect, Subject: sl.ID(),
								Rule: "recovery dwell satisfied", Outcome: "suspect -> healthy",
								Inputs: []decisions.KV{
									kvF("score", h.score),
									kvF("threshold", recoverRatio),
									kvF("dwell", recoverDwell),
								},
							}
						},
					})
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
		fmt.Sprintf("health score %.2f over %.2f", h.score, quarantineRatio), transition{
			touched: []*mig.Slice{sl},
			decision: func() decisions.Record {
				return decisions.Record{
					Kind: decisions.KindQuarantine, Subject: sl.ID(),
					Rule:    "EWMA score over quarantine threshold",
					Outcome: "suspect -> quarantined; owner torn down",
					Inputs: []decisions.KV{
						kvF("score", h.score),
						kvF("threshold", quarantineRatio),
						kvF("probation", p.probation),
					},
				}
			},
		})
	p.tearDownQuarantined(sl)
	// A quarantine is an anomaly: freeze the provenance ring after the
	// teardown so the dump carries the retries it caused.
	if p.decOn() {
		p.opts.Decisions.Freeze(p.eng.Now(), "quarantine "+sl.ID())
	}
	p.eng.After(p.probation, func() { p.liftQuarantine(sl) })
	// Torn-down demand must re-place on healthy hardware now, not at
	// the next control period.
	p.kickScaleUp()
}

// tearDownQuarantined evicts whatever owns the quarantined slice. The
// teardown is the fail-stop one (failSlice); it then additionally voids
// the affected functions' last-use stamps on the node: that warmth was
// earned on hardware whose timing lied, and the next launch must not
// trust it.
func (p *Platform) tearDownQuarantined(sl *mig.Slice) {
	node := p.inv[sl.GPU.Node].node.ID
	for _, fn := range p.failSlice(sl) {
		delete(fn.lastNodeUse, node)
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
	h.state = sliceSuspect
	h.score = suspectRatio
	h.samples = 0
	h.belowSince = -1
	p.logEvent(EvSliceSuspect, sl.ID(), "probation over: readmitted for probing", transition{
		touched: []*mig.Slice{sl},
		decision: func() decisions.Record {
			return decisions.Record{
				Kind: decisions.KindSuspect, Subject: sl.ID(), Rule: "probation expired",
				Outcome: "quarantined -> suspect (must re-earn healthy)",
				Inputs:  []decisions.KV{kvF("score", h.score)},
			}
		},
	})
	p.kickScaleUp()
}

// Suspects returns how many healthy->suspect transitions occurred.
func (p *Platform) Suspects() int { return p.suspects }

// Quarantines returns how many slices were quarantined.
func (p *Platform) Quarantines() int { return p.tally[EvSliceQuarantine] }
