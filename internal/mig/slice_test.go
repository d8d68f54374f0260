package mig

import (
	"testing"
)

// TestSliceProfiles pins the exact contents of paper Table 2.
func TestSliceProfiles(t *testing.T) {
	want := []struct {
		typ      SliceType
		name     string
		gpcs     int
		memGB    int
		maxCount int
	}{
		{Slice7g, "7g.80gb", 7, 80, 1},
		{Slice4g, "4g.40gb", 4, 40, 1},
		{Slice3g, "3g.40gb", 3, 40, 2},
		{Slice2g, "2g.20gb", 2, 20, 3},
		{Slice1g, "1g.10gb", 1, 10, 7},
	}
	for _, w := range want {
		if w.typ.String() != w.name {
			t.Errorf("%v.String() = %q, want %q", w.typ, w.typ.String(), w.name)
		}
		if w.typ.GPCs() != w.gpcs {
			t.Errorf("%s GPCs = %d, want %d", w.name, w.typ.GPCs(), w.gpcs)
		}
		if w.typ.MemGB() != w.memGB {
			t.Errorf("%s MemGB = %d, want %d", w.name, w.typ.MemGB(), w.memGB)
		}
		if w.typ.MaxCount() != w.maxCount {
			t.Errorf("%s MaxCount = %d, want %d", w.name, w.typ.MaxCount(), w.maxCount)
		}
	}
}

func TestParseSliceType(t *testing.T) {
	for _, typ := range SliceTypes {
		got, err := ParseSliceType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseSliceType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseSliceType("5g.50gb"); err == nil {
		t.Error("ParseSliceType accepted a bogus profile")
	}
}

func TestInvalidSliceTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid SliceType did not panic")
		}
	}()
	_ = SliceType(99).GPCs()
}
