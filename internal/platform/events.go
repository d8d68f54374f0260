package platform

import (
	"fmt"
	"strings"

	"fluidfaas/internal/mig"
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

	numEventKinds
)

// eventKindLabels is the one name table: String renders from it and
// ParseEventKind scans it.
var eventKindLabels = [numEventKinds]string{
	EvLaunch: "launch", EvRelease: "release", EvDemote: "demote",
	EvPromote: "promote", EvEvict: "evict", EvCold: "cold",
	EvMigrate: "migrate", EvDrop: "drop", EvPoolGrow: "pool-grow",
	EvPoolShrink: "pool-shrink", EvFault: "fault", EvRecover: "recover",
	EvRetry: "retry", EvReject: "reject", EvShed: "shed",
	EvBrownout: "brownout", EvContract: "contract",
	EvSwapIn: "swap-in", EvSwapOut: "swap-out",
	EvDegrade: "degrade", EvSliceSuspect: "slice-suspect",
	EvSliceQuarantine: "slice-quarantine", EvHedge: "hedge",
	EvHedgeCancel: "hedge-cancel",
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

// eventLogCap bounds the retained lifecycle-event ring. Subscribers on
// the EventBus see every event regardless; the ring only limits
// after-the-fact Events() inspection.
const eventLogCap = obs.DefaultBusCapacity

// logEvent publishes a lifecycle event: the per-kind tally counts it,
// subscribers see it losslessly, the bounded ring retains it for
// Events(). touched are the slices whose state the transition changed;
// the util ledger re-derives their base state at this instant, so every
// transition reaches the ledger through its event.
func (p *Platform) logEvent(kind EventKind, subject, detail string, touched ...*mig.Slice) {
	p.tally[kind]++
	p.events.Publish(Event{Time: p.eng.Now(), Kind: kind, Subject: subject, Detail: detail})
	p.utilTouch(touched...)
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

// CountEvents returns how many events of each kind the run published
// (kinds that never fired are absent). It reads the per-kind tally, so
// it stays exact after the bounded ring wraps.
func (p *Platform) CountEvents() map[EventKind]int {
	out := map[EventKind]int{}
	for k, n := range p.tally {
		if n > 0 {
			out[EventKind(k)] = n
		}
	}
	return out
}
