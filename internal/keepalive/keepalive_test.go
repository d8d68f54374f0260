package keepalive

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFig8Transitions pins the legal state transitions of paper Fig. 8.
func TestFig8Transitions(t *testing.T) {
	allowed := [][2]State{
		{Cold, TimeSharing},         // 1: creation on first request
		{TimeSharing, ExclusiveHot}, // 2: utilisation above threshold
		{ExclusiveHot, TimeSharing}, // 3: request volume drops
		{TimeSharing, Warm},         // 4: evicted to CPU memory
		{Warm, Cold},                // 5: ten-minute idle timeout
		{Warm, TimeSharing},         // reload on demand
	}
	allowedSet := map[[2]State]bool{}
	for _, tr := range allowed {
		allowedSet[tr] = true
		if !CanTransition(tr[0], tr[1]) {
			t.Errorf("transition %v -> %v should be legal", tr[0], tr[1])
		}
	}
	states := []State{Cold, Warm, TimeSharing, ExclusiveHot}
	for _, from := range states {
		for _, to := range states {
			if !allowedSet[[2]State{from, to}] && CanTransition(from, to) {
				t.Errorf("transition %v -> %v should be illegal", from, to)
			}
		}
	}
}

// transitionPanics runs m.To(to) and reports whether it panicked.
func transitionPanics(m *Machine, to State) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	m.To(to)
	return false
}

func TestMachineLifecycle(t *testing.T) {
	m := NewMachine()
	if m.State() != Cold {
		t.Fatalf("initial state = %v, want cold", m.State())
	}
	steps := []State{TimeSharing, ExclusiveHot, TimeSharing, Warm, TimeSharing, Warm, Cold}
	for _, s := range steps {
		if transitionPanics(m, s) {
			t.Fatalf("transition to %v panicked", s)
		}
		if m.State() != s {
			t.Fatalf("state = %v after transition to %v", m.State(), s)
		}
	}
	if !transitionPanics(m, ExclusiveHot) {
		t.Error("cold -> exclusive-hot accepted")
	}
	if m.State() != Cold {
		t.Errorf("illegal transition moved the state to %v", m.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Cold: "cold", Warm: "warm", TimeSharing: "time-sharing",
		ExclusiveHot: "exclusive-hot",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// The tracker tests run on the 30 s HotnessWindow.

func TestTrackerUtilization(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.End(9)
	if got := tr.Utilization(30); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("utilization = %v, want 0.3", got)
	}
	// Window slides: by t=60 the [0,9] interval has aged out.
	if got := tr.Utilization(60); got != 0 {
		t.Errorf("utilization after aging = %v, want 0", got)
	}
}

func TestTrackerOpenInterval(t *testing.T) {
	tr := NewTracker()
	tr.Begin(15)
	if got := tr.Utilization(30); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("open interval utilization = %v, want 0.5", got)
	}
	// Still serving: stays at 100% of the recent window eventually.
	if got := tr.Utilization(300); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("long open interval = %v, want 1", got)
	}
}

func TestTrackerPartialOverlap(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.End(24)
	// Window [15,45]: overlap [15,24] = 9 of 30.
	if got := tr.Utilization(45); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("partial overlap = %v, want 0.3", got)
	}
}

func TestTrackerIsHotThreshold(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.End(9.3)
	if !tr.IsHot(30) {
		t.Error("31% utilization should be hot (threshold 30%)")
	}
	tr2 := NewTracker()
	tr2.Begin(0)
	tr2.End(8.7)
	if tr2.IsHot(30) {
		t.Error("29% utilization should not be hot")
	}
}

func TestTrackerEarlyWindow(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.End(2)
	// At t=4, the window clips to [0,4]: 2/4.
	if got := tr.Utilization(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("early-window utilization = %v, want 0.5", got)
	}
}

func TestTrackerIdleAndTouch(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.End(1)
	if got := tr.IdleFor(11); got != 10 {
		t.Errorf("IdleFor = %v, want 10", got)
	}
	tr.Touch(15)
	if got := tr.IdleFor(16); got != 1 {
		t.Errorf("IdleFor after touch = %v, want 1", got)
	}
	if got := tr.lastUse; got != 15 {
		t.Errorf("lastUse = %v, want 15", got)
	}
	tr.Touch(2) // stale touch must not move time backwards
	if got := tr.lastUse; got != 15 {
		t.Errorf("lastUse after stale touch = %v", got)
	}
}

func TestTrackerDoubleBeginIgnored(t *testing.T) {
	tr := NewTracker()
	tr.Begin(0)
	tr.Begin(6) // already serving
	tr.End(12)
	if got := tr.Utilization(30); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("utilization = %v, want 0.4", got)
	}
}

// TestTrackerDefensiveSequences: out-of-order Begin/End/Touch calls
// (completion callbacks fire in event order, not wall order) must keep
// lastUse monotonic and never drop or corrupt activity.
func TestTrackerDefensiveSequences(t *testing.T) {
	cases := []struct {
		name    string
		drive   func(tr *Tracker)
		lastUse float64
		util    float64 // at now=30
	}{
		{
			// An End with no open interval is still evidence the
			// instance was active: it must count as a Touch, not vanish.
			name:    "end without begin touches",
			drive:   func(tr *Tracker) { tr.End(9) },
			lastUse: 9,
			util:    0,
		},
		{
			// A Begin back-dated before activity a later Touch recorded
			// must not rewind lastUse.
			name: "stale begin keeps lastUse",
			drive: func(tr *Tracker) {
				tr.Touch(18)
				tr.Begin(6)
				tr.End(12)
			},
			lastUse: 18,
			util:    0.2,
		},
		{
			// An End before its interval's start clamps to a zero-length
			// interval rather than going negative.
			name: "end before start clamps",
			drive: func(tr *Tracker) {
				tr.Begin(15)
				tr.End(9)
			},
			lastUse: 15,
			util:    0,
		},
		{
			// A stale End after a fresher Touch closes the interval at
			// the End time but leaves lastUse at the Touch.
			name: "stale end keeps lastUse",
			drive: func(tr *Tracker) {
				tr.Begin(3)
				tr.Touch(24)
				tr.End(12)
			},
			lastUse: 24,
			util:    0.3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker()
			tc.drive(tr)
			if got := tr.lastUse; got != tc.lastUse {
				t.Errorf("lastUse = %v, want %v", got, tc.lastUse)
			}
			if got := tr.Utilization(30); math.Abs(got-tc.util) > 1e-12 {
				t.Errorf("Utilization(30) = %v, want %v", got, tc.util)
			}
		})
	}
}

// Property: utilisation is always within [0, 1].
func TestTrackerBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := NewTracker()
		now := 0.0
		for _, r := range raw {
			now += float64(r%7) * 3
			if r%2 == 0 {
				tr.Begin(now)
			} else {
				tr.End(now)
			}
			u := tr.Utilization(now)
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// unpruned is a Tracker's busy-interval record kept whole: the oracle
// for Begin's pruning.
type unpruned [][2]float64

func (u *unpruned) begin(now float64) {
	if n := len(*u); n > 0 && (*u)[n-1][1] < 0 {
		return
	}
	*u = append(*u, [2]float64{now, -1})
}

func (u *unpruned) end(now float64) {
	if n := len(*u); n > 0 && (*u)[n-1][1] < 0 {
		(*u)[n-1][1] = max(now, (*u)[n-1][0])
	}
}

// utilization sums every interval's overlap with the window, in
// recording order, skipping the ones that closed at or before its start.
func (u unpruned) utilization(now float64) float64 {
	lo := max(now-HotnessWindow, 0)
	if now-lo <= 0 {
		return 0
	}
	busy := 0.0
	for _, iv := range u {
		start, end := iv[0], iv[1]
		if end >= 0 && end <= lo {
			continue
		}
		if end < 0 || end > now {
			end = now
		}
		if end > max(start, lo) {
			busy += end - max(start, lo)
		}
	}
	return min(busy/(now-lo), 1)
}

// TestTrackerPruneMatchesUnpruned: Begin drops aged intervals when its
// buffer is full, and no Utilization call at a clock at or after every
// earlier Begin notices. Seeded random Begin/End/Touch/Utilization
// sequences on a non-decreasing clock, with Begins back-dated as a
// completion callback does (Begin(end - exec) then End(end)), must read
// utilisations bit-equal to an unpruned record's.
func TestTrackerPruneMatchesUnpruned(t *testing.T) {
	prunedSeeds := 0 // seeds in which Begin pruned
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, ref := NewTracker(), unpruned(nil)
		now := 0.0
		pruned := false
		begin := func(at float64) {
			n := len(tr.intervals)
			tr.Begin(at)
			ref.begin(at)
			pruned = pruned || len(tr.intervals) < n
		}
		// Utilization prunes too; rare calls leave Begin to do it.
		readEvery := 2 + rng.Intn(100)
		for op := 0; op < 3000; op++ {
			now += float64(rng.Intn(8)) * rng.Float64() // some ties
			if rng.Intn(readEvery) == 0 {
				got, want := tr.Utilization(now), ref.utilization(now)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: Utilization(%v) = %v, unpruned %v", seed, op, now, got, want)
				}
				continue
			}
			switch r := rng.Intn(8); {
			case r < 3:
				begin(now)
			case r < 5:
				begin(now - rng.Float64()*5)
				tr.End(now)
				ref.end(now)
			case r < 7:
				tr.End(now)
				ref.end(now)
			default:
				tr.Touch(now)
			}
		}
		if pruned {
			prunedSeeds++
		}
	}
	if prunedSeeds < 50 {
		t.Fatalf("Begin pruned in %d of 100 seeds, want at least 50", prunedSeeds)
	}
}

// TestTrackerBoundedWhileBusy: a tracker busy for 1800 s (ten busy
// periods a second) that nobody asks for its utilisation keeps about a
// window's worth of intervals, not the whole history.
func TestTrackerBoundedWhileBusy(t *testing.T) {
	tr := NewTracker()
	const perSecond = 10
	for i := 0; i < 1800*perSecond; i++ {
		start := float64(i) / perSecond
		tr.Begin(start)
		tr.End(start + 0.5/perSecond)
	}
	window := int(HotnessWindow * perSecond)
	if c := cap(tr.intervals); c > 4*window {
		t.Errorf("capacity %d after 1800 s busy, want at most %d (4 windows' worth)", c, 4*window)
	}
	if got := tr.Utilization(1800); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}

func TestLoadTimes(t *testing.T) {
	if got := WarmLoadTime(12); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("WarmLoadTime(12) = %v, want 1", got)
	}
	if got := WarmLoadTime(-5); got != 0 {
		t.Errorf("WarmLoadTime(-5) = %v, want 0", got)
	}
	cold := ColdStartTime(12)
	if cold <= WarmLoadTime(12) {
		t.Error("cold start should cost more than warm reload")
	}
	want := ColdStartBase + 12.0/RemoteFetchGBps + 12.0/PCIeBandwidthGBps
	if math.Abs(cold-want) > 1e-12 {
		t.Errorf("ColdStartTime(12) = %v, want %v", cold, want)
	}
}

func TestSwapTimes(t *testing.T) {
	// A swap-in is the managed warm reload: same PCIe copy, same cost.
	if got := SwapInTime(24); got != WarmLoadTime(24) {
		t.Errorf("SwapInTime(24) = %v, want WarmLoadTime %v", got, WarmLoadTime(24))
	}
	// A swap-in must stay far below a cold start for the tier to pay off.
	if SwapInTime(20) >= ColdStartTime(20) {
		t.Error("swap-in should undercut a cold start")
	}
	if SwapInTime(-3) != 0 {
		t.Error("negative sizes should clamp to 0")
	}
}

func TestIdleTimeoutMatchesPaper(t *testing.T) {
	if IdleTimeout != 600 {
		t.Errorf("IdleTimeout = %v, want 600 (ten minutes)", IdleTimeout)
	}
	if HotUtilization != 0.30 {
		t.Errorf("HotUtilization = %v, want 0.30", HotUtilization)
	}
}

// Property: under random transition attempts, the machine only ever
// holds legal states and rejects exactly the non-Fig.8 edges.
func TestMachineRandomWalkProperty(t *testing.T) {
	states := []State{Cold, Warm, TimeSharing, ExclusiveHot}
	f := func(moves []uint8) bool {
		m := NewMachine()
		for _, mv := range moves {
			target := states[int(mv)%len(states)]
			from := m.State()
			if transitionPanics(m, target) == CanTransition(from, target) {
				return false
			}
			want := from
			if CanTransition(from, target) {
				want = target
			}
			if m.State() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
