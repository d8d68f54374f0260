package overload

import "testing"

// TestLadderEscalatesImmediately: a pressure spike jumps straight to
// the rung it calls for, no dwell.
func TestLadderEscalatesImmediately(t *testing.T) {
	l := NewLadder()
	if from, to, changed := l.Observe(0, 5.0); !changed || from != LevelNormal || to != LevelShed {
		t.Errorf("Observe(5.0) = %v->%v changed=%v, want normal->shed", from, to, changed)
	}
	if l.Level() != LevelShed {
		t.Errorf("level = %v, want shed", l.Level())
	}
}

// TestLadderDeEscalationHysteresis: stepping down needs the pressure
// below the exit band AND the dwell time served, one rung at a time.
func TestLadderDeEscalationHysteresis(t *testing.T) {
	l := NewLadder()
	l.Observe(0, (enter[1]+enter[2])/2) // -> degrade

	// Inside the hysteresis band (>= enter[1]-exitMargin): no step down ever.
	if _, _, changed := l.Observe(2*dwell, enter[1]-exitMargin/2); changed {
		t.Error("stepped down inside the hysteresis band")
	}
	// Below the band but before the dwell: hold.
	if _, _, changed := l.Observe(dwell/2, 0.1); changed {
		t.Error("stepped down before the dwell expired")
	}
	// Below the band, dwell served: one rung only.
	if from, to, changed := l.Observe(dwell+1, 0.1); !changed || from != LevelDegrade || to != LevelConserve {
		t.Errorf("Observe = %v->%v changed=%v, want degrade->conserve", from, to, changed)
	}
	// The next step down needs its own dwell.
	if _, _, changed := l.Observe(dwell+2, 0.1); changed {
		t.Error("double-stepped down without a fresh dwell")
	}
	if from, to, _ := l.Observe(2*dwell+2, 0.1); from != LevelConserve || to != LevelNormal {
		t.Errorf("final step = %v->%v, want conserve->normal", from, to)
	}
}

// TestLadderZeroPressureStaysNormal: the zero signal never leaves
// normal — the gate for bit-for-bit identical no-pressure runs.
func TestLadderZeroPressureStaysNormal(t *testing.T) {
	l := NewLadder()
	for now := 0.0; now < 100; now++ {
		if _, _, changed := l.Observe(now, 0); changed || l.Level() != LevelNormal {
			t.Fatalf("ladder left normal on zero pressure at t=%v", now)
		}
	}
}

// TestPreferSwapRelief: swap relief only replaces a shed — never a
// milder brownout rung — and only while the pool can take the copy.
func TestPreferSwapRelief(t *testing.T) {
	c := Config{}
	for _, lvl := range []Level{LevelNormal, LevelConserve, LevelDegrade} {
		if c.PreferSwapRelief(lvl, 0) {
			t.Errorf("relief preferred at %v, want shed-only", lvl)
		}
	}
	if !c.PreferSwapRelief(LevelShed, SwapHeadroom/2) {
		t.Error("relief refused at shed with ample headroom")
	}
	if c.PreferSwapRelief(LevelShed, SwapHeadroom) {
		t.Error("relief preferred at the headroom ceiling")
	}
	if c.PreferSwapRelief(LevelShed, (SwapHeadroom+1)/2) {
		t.Error("relief preferred above the headroom ceiling")
	}
}

// TestLevelString names every rung.
func TestLevelString(t *testing.T) {
	want := map[Level]string{
		LevelNormal: "normal", LevelConserve: "conserve",
		LevelDegrade: "degrade", LevelShed: "shed",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

// TestHedgingAllowed: hedged retries are permitted through Conserve and
// cut off at Degrade and Shed, whichever features are on.
func TestHedgingAllowed(t *testing.T) {
	c := Config{}
	if c.Enabled() {
		t.Error("zero config reports enabled")
	}
	want := map[Level]bool{
		LevelNormal: true, LevelConserve: true,
		LevelDegrade: false, LevelShed: false,
	}
	for lvl, ok := range want {
		if got := c.HedgingAllowed(lvl); got != ok {
			t.Errorf("HedgingAllowed(%s) = %v, want %v", lvl, got, ok)
		}
	}
}
