package mig

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidity(t *testing.T) {
	valid := []Config{
		{Slice7g},
		{Slice4g},
		{Slice4g, Slice3g},
		{Slice4g, Slice2g, Slice1g}, // the paper's default partition
		{Slice3g, Slice3g},
		{Slice3g, Slice2g, Slice2g}, // P2
		{Slice2g, Slice2g, Slice2g, Slice1g},
		{Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g},
		{Slice4g, Slice1g, Slice1g, Slice1g},
		{Slice3g, Slice2g, Slice1g, Slice1g},
	}
	for _, c := range valid {
		if !c.Valid() {
			t.Errorf("config %v should be valid", c)
		}
	}
	invalid := []Config{
		{},                                   // empty
		{Slice7g, Slice1g},                   // 7g occupies the whole GPU
		{Slice4g, Slice4g},                   // max one 4g
		{Slice4g, Slice3g, Slice1g},          // 8 GPCs > 7
		{Slice3g, Slice3g, Slice1g},          // memory slots exhausted
		{Slice2g, Slice2g, Slice2g, Slice2g}, // max three 2g
		{Slice2g, Slice2g, Slice2g, Slice1g, Slice1g},                            // 8 GPCs
		{Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g, Slice1g}, // max seven 1g
	}
	for _, c := range invalid {
		if c.Valid() {
			t.Errorf("config %v should be invalid", c)
		}
	}
}

// TestConfigStringRoundTrip: String renders largest slice first, and
// each rendered profile parses back to the config's slices.
func TestConfigStringRoundTrip(t *testing.T) {
	c := Config{Slice1g, Slice4g, Slice2g}
	s := c.String()
	if s != "4g.40gb+2g.20gb+1g.10gb" {
		t.Errorf("String = %q", s)
	}
	var back Config
	for _, part := range strings.Split(s, "+") {
		st, err := ParseSliceType(part)
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, st)
	}
	if !reflect.DeepEqual(back, c.Canonical()) {
		t.Errorf("round trip = %v, want %v", back, c.Canonical())
	}
}

func TestConfigTotals(t *testing.T) {
	c := DefaultConfig
	if c.TotalGPCs() != 7 {
		t.Errorf("default partition GPCs = %d, want 7", c.TotalGPCs())
	}
}

// TestTable7Partitions pins the partition schemes of paper Table 7.
func TestTable7Partitions(t *testing.T) {
	hybrid := HybridNode()
	if len(hybrid) != 8 {
		t.Fatalf("hybrid node has %d GPUs, want 8", len(hybrid))
	}
	wantHybrid := []string{
		"1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb",
		"2g.20gb+2g.20gb+2g.20gb+1g.10gb",
		"2g.20gb+2g.20gb+2g.20gb+1g.10gb",
		"4g.40gb+3g.40gb",
		"4g.40gb+3g.40gb",
		"4g.40gb+3g.40gb",
		"4g.40gb+3g.40gb",
		"4g.40gb+2g.20gb+1g.10gb",
	}
	for i, cfg := range hybrid {
		if !cfg.Valid() {
			t.Errorf("hybrid gpu %d config %v invalid", i, cfg)
		}
		if cfg.String() != wantHybrid[i] {
			t.Errorf("hybrid gpu %d = %s, want %s", i, cfg, wantHybrid[i])
		}
	}
	if ConfigP1.String() != "4g.40gb+2g.20gb+1g.10gb" {
		t.Errorf("P1 = %s", ConfigP1)
	}
	if ConfigP2.String() != "3g.40gb+2g.20gb+2g.20gb" {
		t.Errorf("P2 = %s", ConfigP2)
	}
	uni := UniformNode(ConfigP2, 8)
	if len(uni) != 8 || uni[3].String() != ConfigP2.String() {
		t.Errorf("UniformNode wrong: %v", uni)
	}
}

// TestEnumerateConfigs: every partition scheme the paper uses is a
// valid MIG config, and the distinct schemes render distinctly.
func TestEnumerateConfigs(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range []Config{DefaultConfig, ConfigP1, ConfigP2, ConfigFull1g,
		Config2g3x1g, Config3g4g, ConfigWhole} {
		if !c.Valid() {
			t.Errorf("paper config %v is invalid", c)
		}
		seen[c.Canonical().String()] = true
	}
	// DefaultConfig and ConfigP1 are the same 4g+2g+1g partition.
	if len(seen) != 6 {
		t.Errorf("paper configs render as %d distinct partitions, want 6", len(seen))
	}
}

// Property: validity is monotone — any subset of a valid config is valid.
func TestConfigSubsetValidityProperty(t *testing.T) {
	checked := 0
	f := func(picks [7]uint8, n, drop uint8) bool {
		var c Config
		for _, p := range picks[:1+int(n)%len(picks)] {
			c = append(c, SliceTypes[int(p)%len(SliceTypes)])
		}
		if len(c) <= 1 || !c.Valid() {
			return true
		}
		checked++
		i := int(drop) % len(c)
		sub := append(append(Config{}, c[:i]...), c[i+1:]...)
		return sub.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no valid multi-slice config was generated")
	}
}
