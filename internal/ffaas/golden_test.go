package ffaas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"fluidfaas/internal/dag"
	"fluidfaas/internal/mig"
	"fluidfaas/internal/pipeline"
	"fluidfaas/internal/sim"
)

// goldenLoad is the reload cost model of the golden sequences.
func goldenLoad(memGB float64) float64 { return memGB / 12 }

// stagedConfig returns the image-classification chain deployed as the
// best-ranked partition with the given stage count, each stage on the
// smallest slice profile BuildPlan accepts, together with that plan.
func stagedConfig(t *testing.T, stages int) (Config, pipeline.Plan) {
	t.Helper()
	fn := mediumApp0()
	d, err := BuildDAG(fn)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.EnumeratePartitions(mig.Slice7g)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		if len(part.Stages) != stages {
			continue
		}
		types := make([]mig.SliceType, stages)
		for i, st := range part.Stages {
			for _, ty := range mig.SliceTypes {
				if _, err := pipeline.BuildPlan(d, dag.Partition{Stages: []dag.Stage{st}}, []mig.SliceType{ty}); err == nil {
					types[i] = ty
					break
				}
			}
		}
		plan, err := pipeline.BuildPlan(d, part, types)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, stages)
		for i, ty := range types {
			ids[i] = ty.String()
		}
		cfg, err := FromPlan(plan, ids)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, plan
	}
	t.Fatalf("no %d-stage partition", stages)
	return Config{}, pipeline.Plan{}
}

// goldenStep is one Invoke of a golden sequence: its arrival and the
// stages evicted just before it.
type goldenStep struct {
	arrival float64
	evict   []int
}

// goldenSequence draws n arrivals from the seeded generator, a fifth of
// them with a zero gap so arrivals tie, and the rest spaced around the
// plan's bottleneck so requests queue. With evict set, about one request
// in eight is preceded by the eviction of a random stage.
func goldenSequence(seed int64, n, stages int, bottleneck float64, evict bool) []goldenStep {
	rng := sim.NewRNG(seed, "ffaas-golden")
	steps := make([]goldenStep, n)
	at := 0.0
	for i := range steps {
		if i > 0 && rng.Intn(5) != 0 {
			at += rng.Exp(1 / bottleneck)
		}
		steps[i].arrival = at
		if evict && i > 0 && rng.Intn(8) == 0 {
			steps[i].evict = []int{rng.Intn(stages)}
		}
	}
	return steps
}

// runSequence invokes the steps in order and returns each Result.
// Invokes are issued in bursts before any result is read; the
// outstanding results are drained before an eviction, so the flag lands
// between two requests.
func runSequence(t *testing.T, inst *Instance, steps []goldenStep) []Result {
	t.Helper()
	out := make([]Result, 0, len(steps))
	var pending []<-chan Result
	drain := func() {
		for _, ch := range pending {
			r, ok := <-ch
			if !ok {
				t.Fatal("result channel closed without a result")
			}
			out = append(out, r)
		}
		pending = pending[:0]
	}
	for _, st := range steps {
		if len(st.evict) > 0 {
			drain()
			for _, k := range st.evict {
				inst.EvictStage(k)
			}
		}
		pending = append(pending, inst.Invoke(st.arrival))
	}
	drain()
	return out
}

// lindley is the FIFO tandem recursion the RUN-mode instance must follow,
// computed from the invoker's stage costs: a request starts at a stage at
// max(arrival, the stage's previous departure), pays the reload on the
// first request a cold or evicted stage serves, and reaches the next
// stage one boundary hop after it departs.
func lindley(plan pipeline.Plan, steps []goldenStep, preloaded bool) (res []Result, served []uint64, busy []float64) {
	n := len(plan.Stages)
	free := make([]float64, n)
	loaded := make([]bool, n)
	for k := range loaded {
		loaded[k] = preloaded
	}
	served, busy = make([]uint64, n), make([]float64, n)
	for _, st := range steps {
		for _, k := range st.evict {
			loaded[k] = false
		}
		var r Result
		arr := st.arrival
		for k, sp := range plan.Stages {
			start := max(arr, free[k])
			r.QueueTime += start - arr
			service := sp.ExecTime
			if !loaded[k] {
				load := goldenLoad(sp.MemGB)
				r.LoadTime += load
				service += load
				loaded[k] = true
			}
			finish := start + service
			free[k] = finish
			served[k]++
			busy[k] += service
			r.ExecTime += sp.ExecTime
			r.StageTimes = append(r.StageTimes, service)
			arr = finish
			if k < n-1 {
				r.TransferTime += sp.TransferOut
				arr = finish + sp.TransferOut
			}
		}
		r.Latency = r.QueueTime + r.ExecTime + r.TransferTime + r.LoadTime
		res = append(res, r)
	}
	return res, served, busy
}

// stationTandem runs the eviction-free steps through a chain of
// sim.Station FIFOs (the DES substrate TestStationTandemLindley checks)
// and rebuilds each request's Result from the stations' start and
// departure times.
func stationTandem(plan pipeline.Plan, steps []goldenStep, preloaded bool) []Result {
	e := sim.NewEngine()
	n := len(plan.Stages)
	stations := make([]*sim.Station, n)
	loaded := make([]bool, n)
	for k := range stations {
		stations[k] = sim.NewStation(e)
		loaded[k] = preloaded
	}
	res := make([]Result, len(steps))
	var enter func(k, i int, arr float64)
	enter = func(k, i int, arr float64) {
		sp := plan.Stages[k]
		var service float64
		stations[k].Enqueue(&sim.Job{
			Service: func() sim.Time {
				r := &res[i]
				r.QueueTime += e.Now() - arr
				service = sp.ExecTime
				if !loaded[k] {
					load := goldenLoad(sp.MemGB)
					r.LoadTime += load
					service += load
					loaded[k] = true
				}
				return service
			},
			Done: func() {
				r := &res[i]
				r.ExecTime += sp.ExecTime
				r.StageTimes = append(r.StageTimes, service)
				if k == n-1 {
					r.Latency = r.QueueTime + r.ExecTime + r.TransferTime + r.LoadTime
					return
				}
				r.TransferTime += sp.TransferOut
				next := e.Now() + sp.TransferOut
				e.At(next, func() { enter(k+1, i, next) })
			},
		})
	}
	for i, st := range steps {
		e.At(st.arrival, func() { enter(0, i, st.arrival) })
	}
	e.Run()
	return res
}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashResult(h hash.Hash, r Result) {
	for _, v := range []float64{r.Latency, r.QueueTime, r.ExecTime, r.TransferTime, r.LoadTime} {
		hashFloat(h, v)
	}
	hashFloat(h, float64(len(r.StageTimes)))
	for _, v := range r.StageTimes {
		hashFloat(h, v)
	}
}

func sameResult(a, b Result) bool {
	if math.Float64bits(a.Latency) != math.Float64bits(b.Latency) ||
		math.Float64bits(a.QueueTime) != math.Float64bits(b.QueueTime) ||
		math.Float64bits(a.ExecTime) != math.Float64bits(b.ExecTime) ||
		math.Float64bits(a.TransferTime) != math.Float64bits(b.TransferTime) ||
		math.Float64bits(a.LoadTime) != math.Float64bits(b.LoadTime) ||
		len(a.StageTimes) != len(b.StageTimes) {
		return false
	}
	for i := range a.StageTimes {
		if math.Float64bits(a.StageTimes[i]) != math.Float64bits(b.StageTimes[i]) {
			return false
		}
	}
	return true
}

// TestRunModeGolden pins the RUN-mode runtime: a sha256 over the bits of
// every Result field and the per-stage counters, for seeded Invoke
// sequences over 1-, 2- and 3-stage deployments, cold and preloaded,
// with and without evictions between requests. Each Result must also
// equal, to the bit, the Lindley recursion over the invoker's
// pipeline.BuildPlan stage costs, and on the eviction-free sequences the
// departures of a sim.Station tandem fed the same arrivals.
func TestRunModeGolden(t *testing.T) {
	const (
		perSeq = 400
		want   = "64185f42f9eec5fb4932f964b13e2b5bf49be584b292eb1d0481883fb56ba7c8"
	)
	h := sha256.New()
	for stages := 1; stages <= 3; stages++ {
		cfg, plan := stagedConfig(t, stages)
		if len(cfg.Stages) != stages {
			t.Fatalf("config has %d stages, want %d", len(cfg.Stages), stages)
		}
		for _, preloaded := range []bool{false, true} {
			for _, evict := range []bool{false, true} {
				seed := int64(stages * 4)
				if preloaded {
					seed++
				}
				if evict {
					seed += 2
				}
				steps := goldenSequence(seed, perSeq, stages, plan.Bottleneck, evict)
				inst, err := Launch(mediumApp0(), cfg, LaunchOptions{LoadTime: goldenLoad, Preloaded: preloaded})
				if err != nil {
					t.Fatal(err)
				}
				got := runSequence(t, inst, steps)
				served, busy := inst.StageStats()
				inst.Close()

				oracle, oServed, oBusy := lindley(plan, steps, preloaded)
				var tandem []Result
				if !evict {
					tandem = stationTandem(plan, steps, preloaded)
				}
				ties, queued, loads := 0, 0, 0
				for i, r := range got {
					if !sameResult(r, oracle[i]) {
						t.Fatalf("%d stages preloaded=%v evict=%v request %d:\n got %+v\nLindley %+v",
							stages, preloaded, evict, i, r, oracle[i])
					}
					if tandem != nil && !sameResult(r, tandem[i]) {
						t.Fatalf("%d stages preloaded=%v request %d:\n got %+v\nstation %+v",
							stages, preloaded, i, r, tandem[i])
					}
					if i > 0 && steps[i].arrival == steps[i-1].arrival {
						ties++
					}
					if r.QueueTime > 0 {
						queued++
					}
					if r.LoadTime > 0 {
						loads++
					}
					hashResult(h, r)
				}
				for k := range served {
					if served[k] != oServed[k] || math.Float64bits(busy[k]) != math.Float64bits(oBusy[k]) {
						t.Fatalf("%d stages stage %d: served %d busy %v, Lindley says %d, %v",
							stages, k, served[k], busy[k], oServed[k], oBusy[k])
					}
					hashFloat(h, float64(served[k]))
					hashFloat(h, busy[k])
				}
				if ties == 0 || queued == 0 {
					t.Fatalf("%d stages: sequence has %d ties and %d queued requests", stages, ties, queued)
				}
				if (!preloaded || evict) && loads == 0 {
					t.Fatalf("%d stages preloaded=%v evict=%v: no request paid a load", stages, preloaded, evict)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("RUN-mode golden = %s, want %s", got, want)
	}
}
