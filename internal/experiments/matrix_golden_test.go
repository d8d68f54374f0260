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
			"fluidfaas": "ee056874c899a93a483b90ac7ca0c941eb41140b19c0af0cadd3a99e79704e82",
			"esg":       "49b8a721d5282579c78a3ef6bc13946fdd1c9ac79c13bda7377f05ff25b236fe",
			"infless":   "75953213554a63bb1f80f6496d1659adeeb67ec39b710be85f57f7f97dec54ba",
		},
		Medium: {
			"fluidfaas": "2c39f2c6835b69e08ae5983f0399feafa0ee8d80f47e308e03c5cb9468f81dc7",
			"esg":       "b57272256253af44ffa0b2b328b050cb344b0511e94908365d2659e49f411497",
			"infless":   "28234db055d31d1c48428a9d174406f5b6227ed17a9da9b60cdf1add2a2dd469",
		},
		Heavy: {
			"fluidfaas": "983f88c8f51287dcb00989df86871bd80538d9b2b3182728696c3e9f8fa44254",
			"esg":       "5955268b1c240343335728739325faa2f5600244d24869455373f1a795c8d26e",
			"infless":   "f472b8ef47c97f2dea9db7fe702844deac6fd653c101a7e0aa94ef3b64cb5804",
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
