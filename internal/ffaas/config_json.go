package ffaas

import (
	"encoding/json"
	"fmt"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
)

// The configuration layer is a real artifact in the deployed system: the
// invoker writes the pipeline structure and MIG assignment into the
// function's container before launch (§5.2.1). These helpers give it a
// stable JSON wire form.

type stageConfigJSON struct {
	Nodes   []int  `json:"nodes"`
	Slice   string `json:"slice"`
	SliceID string `json:"slice_id"`
}

type configJSON struct {
	Stages []stageConfigJSON `json:"stages"`
}

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	var out configJSON
	for _, sc := range c.Stages {
		nodes := make([]int, len(sc.Nodes))
		for i, n := range sc.Nodes {
			nodes[i] = int(n)
		}
		out.Stages = append(out.Stages, stageConfigJSON{
			Nodes:   nodes,
			Slice:   sc.Slice.String(),
			SliceID: sc.SliceID,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Config) UnmarshalJSON(data []byte) error {
	var in configJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("ffaas: config: %w", err)
	}
	var out Config
	for i, sc := range in.Stages {
		t, err := mig.ParseSliceType(sc.Slice)
		if err != nil {
			return fmt.Errorf("ffaas: config stage %d: %w", i, err)
		}
		nodes := make([]dag.NodeID, len(sc.Nodes))
		for j, n := range sc.Nodes {
			nodes[j] = dag.NodeID(n)
		}
		out.Stages = append(out.Stages, StageConfig{
			Nodes:   nodes,
			Slice:   t,
			SliceID: sc.SliceID,
		})
	}
	*c = out
	return nil
}
