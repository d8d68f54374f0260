package platform

import (
	"fmt"
	"strings"

	"fluidfaas/internal/obs"
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
	// EvShed: brownout shedding refused a low-priority request.
	EvShed
	// EvBrownout: the degradation ladder changed level.
	EvBrownout
	// EvContract: a pipelined instance was contracted to a smaller
	// footprint under brownout.
	EvContract
	// EvSwapIn: a load was served from a parked host-pool copy instead
	// of a remote refetch (swap tier).
	EvSwapIn
	// EvSwapOut: a model's host-pool copy was evicted under memory
	// pressure, or an idle model was swapped out of GPU memory to
	// relieve a brownout (swap tier).
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
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvLaunch:
		return "launch"
	case EvRelease:
		return "release"
	case EvDemote:
		return "demote"
	case EvPromote:
		return "promote"
	case EvEvict:
		return "evict"
	case EvCold:
		return "cold"
	case EvMigrate:
		return "migrate"
	case EvDrop:
		return "drop"
	case EvPoolGrow:
		return "pool-grow"
	case EvPoolShrink:
		return "pool-shrink"
	case EvFault:
		return "fault"
	case EvRecover:
		return "recover"
	case EvRetry:
		return "retry"
	case EvReject:
		return "reject"
	case EvShed:
		return "shed"
	case EvBrownout:
		return "brownout"
	case EvContract:
		return "contract"
	case EvSwapIn:
		return "swap-in"
	case EvSwapOut:
		return "swap-out"
	case EvDegrade:
		return "degrade"
	case EvSliceSuspect:
		return "slice-suspect"
	case EvSliceQuarantine:
		return "slice-quarantine"
	case EvHedge:
		return "hedge"
	case EvHedgeCancel:
		return "hedge-cancel"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
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

// eventKindNames maps parseable names to kinds, for -events-kind style
// filters. Kept in sync with String by TestEventKindNames.
var eventKindNames = map[string]EventKind{
	"launch": EvLaunch, "release": EvRelease, "demote": EvDemote,
	"promote": EvPromote, "evict": EvEvict, "cold": EvCold,
	"migrate": EvMigrate, "drop": EvDrop, "pool-grow": EvPoolGrow,
	"pool-shrink": EvPoolShrink, "fault": EvFault, "recover": EvRecover,
	"retry": EvRetry, "reject": EvReject, "shed": EvShed,
	"brownout": EvBrownout, "contract": EvContract,
	"swap-in": EvSwapIn, "swap-out": EvSwapOut,
	"degrade": EvDegrade, "slice-suspect": EvSliceSuspect,
	"slice-quarantine": EvSliceQuarantine,
	"hedge":            EvHedge, "hedge-cancel": EvHedgeCancel,
}

// ParseEventKind resolves an event-kind name ("fault", "retry", ...)
// as rendered by EventKind.String.
func ParseEventKind(name string) (EventKind, error) {
	if k, ok := eventKindNames[strings.TrimSpace(name)]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("platform: unknown event kind %q", name)
}

// eventLogCap bounds the retained lifecycle-event ring. Subscribers on
// the EventBus see every event regardless; the ring only limits
// after-the-fact Events() inspection.
const eventLogCap = obs.DefaultBusCapacity

// logEvent publishes a lifecycle event: subscribers see it losslessly,
// the bounded ring retains it for Events().
func (p *Platform) logEvent(kind EventKind, subject, detail string) {
	p.events.Publish(Event{Time: p.eng.Now(), Kind: kind, Subject: subject, Detail: detail})
}

// EventBus exposes the lifecycle event stream. Subscribe before Run to
// observe every event without ring loss; subscribers must only observe
// (mutating platform state from a subscriber breaks determinism
// guarantees).
func (p *Platform) EventBus() *obs.Bus[Event] { return p.events }

// Events returns the retained lifecycle events, oldest first (the ring
// keeps the most recent eventLogCap, 4096; see
// TotalEvents and DroppedEvents for what fell off).
func (p *Platform) Events() []Event { return p.events.Snapshot() }

// TotalEvents returns how many lifecycle events the run ever published,
// including those the bounded ring has since overwritten.
func (p *Platform) TotalEvents() int { return p.events.Total() }

// DroppedEvents returns how many lifecycle events the bounded ring
// overwrote (subscribers saw them; Events() no longer does).
func (p *Platform) DroppedEvents() int { return p.events.Dropped() }

// CountEvents tallies retained events by kind. When the ring has
// wrapped (DroppedEvents() > 0) this undercounts; subscribe to the
// EventBus for lossless tallies.
func (p *Platform) CountEvents() map[EventKind]int {
	out := map[EventKind]int{}
	for _, e := range p.events.Snapshot() {
		out[e.Kind]++
	}
	return out
}
