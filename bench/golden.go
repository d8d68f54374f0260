package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// golden pins the simulated outputs of one seed: every cell of the
// first goldenReps inputs of every workload, and the paper's 300 s
// FluidFaaS and ESG cells. It is regenerated with
// `go test -run TestGolden -update`.
type golden struct {
	Seed      int64                     `json:"seed"`
	Workloads map[string][][]cellDigest `json:"workloads"` // by input index
	Headline  []cellDigest              `json:"headline"`
}

// goldenReps is how many inputs per workload the golden file pins: the
// fewest a run replays.
const goldenReps = minInputs

func goldenPath(seed int64) string {
	return filepath.Join("golden", fmt.Sprintf("seed%d.json", seed))
}

// loadGolden returns the golden file of seed, or nil when the seed has
// none (any seed but the pinned ones).
func loadGolden(seed int64) (*golden, error) {
	b, err := os.ReadFile(goldenPath(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(seed), err)
	}
	return &g, nil
}
