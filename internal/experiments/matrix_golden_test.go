package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// paper holds the seed-42 end-to-end matrix, simulated once per test
// binary: TestEndToEndShape asserts its shapes and TestPaperMatrixGolden
// pins its bytes.
var paper struct {
	once sync.Once
	e    *EndToEnd
}

func paperMatrix() *EndToEnd {
	paper.once.Do(func() { paper.e = RunEndToEnd(DefaultConfig()) })
	return paper.e
}

// TestPaperMatrixGolden pins every cell of the seed-42 paper matrix
// (Fig. 9, 10, 14, 15, 16 and Table 6 for all three systems): a sha256
// over the JSON encoding of each SystemResult, with the engine's two
// wall-clock fields zeroed, since they are the only values that change
// from run to run. A refactor that moves any simulated number fails here.
func TestPaperMatrixGolden(t *testing.T) {
	want := map[Workload]map[string]string{
		Light: {
			"fluidfaas": "04ff08db5bf59a2e2b0e08e91e15afa535f38e61763221e217bb44d3e24eded6",
			"esg":       "da37e018d6638fef86d7f1ce100a12993736b68dfec18d381fe2894a3036d514",
			"infless":   "459531c7fb4dab2f333ccab9c232863108def8921d3f41c678cee654f3e69885",
		},
		Medium: {
			"fluidfaas": "001c4218eb0a0d73533a8e3b7a8119709f225f575c0843c64e7ccb8781664c0c",
			"esg":       "f5fa6859801cce3e2c1df12968e8e2a493e96674a565141052cf17ed2c512db9",
			"infless":   "5a9a55af197aef7d703b75c3092fe96b6da39793fed8982bcbd1da720f2b9161",
		},
		Heavy: {
			"fluidfaas": "621eb9f9858bc0f9996d549a02fd2c3ae5f168da6295f4ff7a90a4657fa058a7",
			"esg":       "003b43b9dbed8590c6ae7a356d7ba046d64020dbcb114a8d07e59608dc388b50",
			"infless":   "7ee97f5d3cc51d0e730cd3d72aee9623ceec6edfccf5e33c5607ba4887969721",
		},
	}
	e := paperMatrix()
	for _, w := range Workloads {
		for sys, digest := range want[w] {
			r, ok := e.Results[w][sys]
			if !ok {
				t.Errorf("%v/%s: no result", w, sys)
				continue
			}
			r.Engine.WallSeconds, r.Engine.EventsPerSec = 0, 0
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("%v/%s: %v", w, sys, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != digest {
				t.Errorf("%v/%s digest %s, want %s", w, sys, got, digest)
			}
		}
	}
}
