package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"fluidfaas/internal/mig"
	"fluidfaas/internal/obs/decisions"
	"fluidfaas/internal/scheduler"
)

// TestDecisionsExportDeterministic: the fluidfaas-sim default cell
// (FluidFaaS, medium, P1, seed 42) run for 30 s with decision
// provenance on writes a byte-identical WriteJSON export twice, and the
// export records admissions.
func TestDecisionsExportDeterministic(t *testing.T) {
	var exports [2][]byte
	for i := range exports {
		cfg := DefaultConfig()
		cfg.Duration = 30
		cfg.GPUConfigs = mig.UniformNode(mig.ConfigP1, 8)
		cfg.Decisions = decisions.NewRecorder(0)
		RunSystem(&scheduler.FluidFaaS{}, Medium, cfg)
		var b bytes.Buffer
		if err := cfg.Decisions.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		exports[i] = b.Bytes()
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("two identical runs wrote different decision exports")
	}
	var doc decisions.Export
	if err := json.Unmarshal(exports[0], &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total <= 0 || doc.Counts["admit"] <= 0 {
		t.Errorf("total %d, counts %v: want recorded decisions including admissions", doc.Total, doc.Counts)
	}
}
