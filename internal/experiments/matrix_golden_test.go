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
			"fluidfaas": "7c24aa2ebfda6ce1c0a90b4f53f2fd4f29a372ce90cd99a1202edb7c16e0a2b2",
			"esg":       "2eb5919edad35b3ea152e7de9f1cf693ed9e030002519f3288991dae7ba149af",
			"infless":   "d10fd1a19d612db21818f25a1074128b528900aea6f9a3706b372a90b20783f6",
		},
		Medium: {
			"fluidfaas": "cab780996e64b8d389e64da0836b64576b74ac10ce5c932915c41905a253f3d7",
			"esg":       "970c87263ff6de288c213e5a2e485b890ac4c957ea3fa49dcb269f484d4045ae",
			"infless":   "be5d3087bba2823302e86c6d874ca1e0121b8b3d43317c3d5b5e66cad245e517",
		},
		Heavy: {
			"fluidfaas": "21f7d0075e9a495055d3dddbf1883aa48d8b44f0c42660d20da39fa28d65d2a9",
			"esg":       "cc209406b85989386759af10c2b9cf25398d9140f9bf3d5bed006c5f0e5559aa",
			"infless":   "de0855d86b2e6693624d4013dc5a4773be2e7db2511dbe01b52f5fc030a701c4",
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
