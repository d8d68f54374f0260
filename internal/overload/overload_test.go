package overload

import "testing"

// TestEnabled: admission turns the subsystem on; the zero config and
// the deprecated fair-queue and brownout fields do not.
func TestEnabled(t *testing.T) {
	for _, tc := range []struct {
		c    Config
		want bool
	}{
		{Config{}, false},
		{Config{FairQueue: true}, false},
		{Config{Admission: true}, true},
		{Config{Brownout: true}, false},
	} {
		if got := tc.c.Enabled(); got != tc.want {
			t.Errorf("%+v.Enabled() = %v, want %v", tc.c, got, tc.want)
		}
	}
}
