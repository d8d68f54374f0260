// Package keepalive implements FluidFaaS's hotness-aware eviction-based
// time sharing (§5.3): the multi-level keep-alive states of Fig. 8,
// their legal transitions, the utilisation tracking that drives them,
// and the model (re)load cost model. A time-sharing slice holds one
// resident model at a time, so a kick simply evicts that resident.
package keepalive

import (
	"fmt"
)

// State is an instance keep-alive state (Fig. 8).
type State int

// The four states. Pipeline instances are always ExclusiveHot (§5.3).
const (
	// Cold: the instance does not exist; a request pays a full cold
	// start.
	Cold State = iota
	// Warm: the model data has been evicted to CPU memory; a request
	// pays a host-to-device reload.
	Warm
	// TimeSharing: the instance's MIG slice may be shared with other
	// time-sharing instances; its data may be on the slice or in CPU
	// memory.
	TimeSharing
	// ExclusiveHot: the instance exclusively owns its slice(s) and is
	// exempt from eviction.
	ExclusiveHot
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Cold:
		return "cold"
	case Warm:
		return "warm"
	case TimeSharing:
		return "time-sharing"
	case ExclusiveHot:
		return "exclusive-hot"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Policy thresholds (§5.3).
const (
	// HotUtilization promotes a time-sharing instance to exclusive-hot
	// when its recent utilisation exceeds it ("not actively busy (i.e.,
	// utilization below 30%)").
	HotUtilization = 0.30
	// IdleTimeout terminates a warm instance with no requests for ten
	// minutes (transition 5).
	IdleTimeout = 600.0
)

// legal lists the transitions of Fig. 8 plus the warm-reload return.
var legal = map[State][]State{
	Cold:         {TimeSharing},        // 1: first request creates the instance
	TimeSharing:  {ExclusiveHot, Warm}, // 2: utilisation exceeds threshold; 4: evicted to CPU
	ExclusiveHot: {TimeSharing},        // 3: request volume decreases
	Warm:         {TimeSharing, Cold},  // reload on request; 5: idle timeout
}

// CanTransition reports whether from -> to is a legal Fig. 8 transition.
func CanTransition(from, to State) bool {
	for _, s := range legal[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Machine tracks one instance's keep-alive state and enforces Fig. 8.
type Machine struct {
	state State
}

// NewMachine returns a machine in the Cold state.
func NewMachine() *Machine { return &Machine{state: Cold} }

// State returns the current state.
func (m *Machine) State() State { return m.state }

// To moves the machine to the target state. An illegal transition is a
// bug in the caller, so it panics and leaves the state unchanged.
func (m *Machine) To(to State) {
	if !CanTransition(m.state, to) {
		panic(fmt.Sprintf("keepalive: illegal transition %v -> %v", m.state, to))
	}
	m.state = to
}
