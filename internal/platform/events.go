package platform

import (
	"fmt"
	"strings"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
)

// EventKind classifies platform lifecycle events.
type EventKind int

// Lifecycle events the platform records.
const (
	// EvLaunch: an exclusive instance launched.
	EvLaunch EventKind = iota
	// EvRelease: an exclusive instance released its slices.
	EvRelease
	// EvDemote: an exclusive instance demoted to time sharing (Fig. 8
	// transition 3).
	EvDemote
	// EvPromote: a hot time-sharing function received an exclusive
	// instance (Fig. 8 transition 2).
	EvPromote
	// EvEvict: a time-sharing resident was evicted to host memory
	// (Fig. 8 transition 4).
	EvEvict
	// EvCold: a warm binding aged out (Fig. 8 transition 5).
	EvCold
	// EvMigrate: a pipeline instance migrated to a monolithic one.
	EvMigrate
	// EvDrop: a pending request was abandoned.
	EvDrop
	// EvPoolGrow: the time-sharing pool acquired a slice.
	EvPoolGrow
	// EvPoolShrink: the time-sharing pool released a slice.
	EvPoolShrink
	// EvFault: a slice, GPU or node failed; its instances and bindings
	// were torn down.
	EvFault
	// EvRecover: failed hardware was repaired and rejoined placement.
	EvRecover
	// EvRetry: an in-flight request lost its hardware and was re-routed
	// with backoff.
	EvRetry
	// EvReject: admission control fast-failed a request at arrival (its
	// estimated completion could not meet the deadline).
	EvReject
	// EvSwapIn: a load was served from a parked host-pool copy instead
	// of a remote refetch (swap tier).
	EvSwapIn
	// EvSwapOut: a model's host-pool copy was evicted under memory
	// pressure (swap tier).
	EvSwapOut
	// EvDegrade: a slice entered gray degradation — it keeps serving,
	// but exec/load/transfer times stretch by the event's severity.
	EvDegrade
	// EvSliceSuspect: a slice's health score (EWMA of
	// observed-vs-declared exec ratio) crossed the suspect threshold,
	// or a quarantined slice was readmitted on probation.
	EvSliceSuspect
	// EvSliceQuarantine: a suspect slice's health score crossed the
	// quarantine threshold; it was pulled from placement and its owner
	// torn down.
	EvSliceQuarantine
	// EvHedge: a request at deadline risk on a suspect slice launched a
	// duplicate on healthy hardware (first completion wins).
	EvHedge
	// EvHedgeCancel: the losing copy of a hedged request was cancelled
	// (or finished unrecorded; its work counts as hedge waste).
	EvHedgeCancel

	numEventKinds
)

// eventKindLabels is the one name table: String renders from it and
// ParseEventKind scans it.
var eventKindLabels = [numEventKinds]string{
	EvLaunch: "launch", EvRelease: "release", EvDemote: "demote",
	EvPromote: "promote", EvEvict: "evict", EvCold: "cold",
	EvMigrate: "migrate", EvDrop: "drop", EvPoolGrow: "pool-grow",
	EvPoolShrink: "pool-shrink", EvFault: "fault", EvRecover: "recover",
	EvRetry: "retry", EvReject: "reject", EvSwapIn: "swap-in",
	EvSwapOut: "swap-out", EvDegrade: "degrade",
	EvSliceSuspect: "slice-suspect", EvSliceQuarantine: "slice-quarantine",
	EvHedge: "hedge", EvHedgeCancel: "hedge-cancel",
}

// String names the event kind.
func (k EventKind) String() string {
	if k < 0 || k >= numEventKinds {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return eventKindLabels[k]
}

// Event is one recorded platform lifecycle event.
type Event struct {
	Time    float64
	Kind    EventKind
	Subject string // instance ID, function name, or slice ID
	Detail  string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%8.2fs %-11s %-30s %s", e.Time, e.Kind, e.Subject, e.Detail)
}

// ParseEventKind resolves an event-kind name ("fault", "retry", ...)
// as rendered by EventKind.String.
func ParseEventKind(name string) (EventKind, error) {
	name = strings.TrimSpace(name)
	for k, n := range eventKindLabels {
		if n == name {
			return EventKind(k), nil
		}
	}
	return 0, fmt.Errorf("platform: unknown event kind %q", name)
}

// eventLogCap is the size of the retired lifecycle-event ring;
// DroppedEvents still reports what a ring that size would have lost.
const eventLogCap = 4096

// transition is what one lifecycle transition carries besides its
// event's kind, subject and detail: the state it changed, what it acted
// on and why. logEvent delivers all of it to every observer.
type transition struct {
	// touched are the slices whose state the transition changed; the
	// util ledger re-derives their base state at this instant.
	touched []*mig.Slice
	// teardown marks the touched slices' recorded work as dead now:
	// the span trace and the util ledger truncate it before the event
	// publishes.
	teardown bool
	// rq is the request the transition acted on, if any. It stamps the
	// decision's Func, Req and Attempt.
	rq *request
	// decision builds the record of why the transition happened, less
	// the stamped fields. It runs only while provenance is on.
	decision func() decisions.Record
}

// logEvent is the one call a lifecycle transition makes: a teardown
// truncates the touched slices' recorded work, the per-kind tally counts
// the event, every subscriber sees it, the util ledger re-derives the
// touched slices' base state, and the decision behind the transition is
// recorded, stamped with the current time and t's request. The event's
// strings stay out of t: subscribers may keep them, and Go's escape
// analysis does not tell a struct's fields apart, so a decision builder
// beside them would be heap-allocated on every call, provenance on or
// off.
func (p *Platform) logEvent(kind EventKind, subject, detail string, t transition) {
	now := p.eng.Now()
	if t.teardown {
		for _, sl := range t.touched {
			p.opts.Obs.CancelSliceWork(sl.ID(), now)
			p.opts.Util.CancelBusy(sl.ID(), now)
		}
	}
	p.tally[kind]++
	for _, fn := range p.subs {
		fn(Event{Time: now, Kind: kind, Subject: subject, Detail: detail})
	}
	p.utilTouch(t.touched...)
	if t.decision == nil || !p.decOn() {
		return
	}
	rec := t.decision()
	rec.Time, rec.Req = now, decisions.NoRequest
	if rq := t.rq; rq != nil {
		rec.Func, rec.Req, rec.Attempt = rq.fn.spec.Name, rq.id, rq.attempts
	}
	p.opts.Decisions.Record(rec)
}

// Subscribe registers fn to be called with every lifecycle event
// published from now on, in publish order, after the subscribers
// already registered. Subscribe before Run to see the whole run.
// Subscribers must only observe: mutating platform state from one
// breaks determinism. They run on the engine goroutine.
func (p *Platform) Subscribe(fn func(Event)) { p.subs = append(p.subs, fn) }

// TotalEvents returns how many lifecycle events the run published.
func (p *Platform) TotalEvents() int {
	n := 0
	for _, c := range p.tally {
		n += c
	}
	return n
}

// DroppedEvents returns how many of the run's lifecycle events a
// 4096-event ring would have overwritten: max(0, TotalEvents()-4096).
//
// Deprecated: the platform keeps no event ring, so nothing is dropped.
// It survives only for the fluidfaas_events_dropped gauge that the
// benchmark's pinned export still carries; subscribers see every event.
func (p *Platform) DroppedEvents() int { return max(0, p.TotalEvents()-eventLogCap) }
