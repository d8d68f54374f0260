package mig

import (
	"reflect"
	"testing"
)

// FuzzParseConfig: ParseConfig never panics; a config it accepts
// renders through String into text that parses back to the same
// (canonical) config and renders identically again; and Valid answers
// for any accepted config without panicking.
func FuzzParseConfig(f *testing.F) {
	for _, s := range []string{
		"4g.40gb+2g.20gb+1g.10gb",
		"7g.80gb",
		"1g.10gb + 1g.10gb+1g.10gb",
		"(empty)",
		"",
		"3g.40gb+3g.40gb+1g.10gb",
		"4g.40gb+",
		"+",
		"4g.40gb+bogus",
		"7g.80gb+7g.80gb+7g.80gb+7g.80gb+7g.80gb+7g.80gb+7g.80gb+7g.80gb",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseConfig(s)
		if err != nil {
			return
		}
		text := c.String()
		back, err := ParseConfig(text)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, text, err)
		}
		if len(c) == 0 {
			if len(back) != 0 {
				t.Fatalf("empty config rendered as %q parses to %v", text, back)
			}
		} else if !reflect.DeepEqual(back, c.Canonical()) {
			t.Fatalf("%q round-trips through %q to %v, want %v", s, text, back, c.Canonical())
		}
		if again := back.String(); again != text {
			t.Fatalf("%q renders as %q, then as %q", s, text, again)
		}
		_ = c.Valid()
	})
}
