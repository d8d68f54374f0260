package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fluidfaas/internal/sim"
)

func basicSpec() Spec {
	return Spec{
		Duration: 600,
		Seed:     42,
		Streams: []StreamSpec{
			{Func: 0, MeanRPS: 5},
			{Func: 1, MeanRPS: 2, RateSigma: 0.5},
			{Func: 2, MeanRPS: 3, BurstFactor: 4, BurstFraction: 0.1, BurstLen: 20},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(basicSpec())
	b := Generate(basicSpec())
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateSeedChangesTrace(t *testing.T) {
	spec := basicSpec()
	a := Generate(spec)
	spec.Seed = 43
	b := Generate(spec)
	if len(a.Requests) == len(b.Requests) {
		same := true
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateSortedAndNumbered(t *testing.T) {
	tr := Generate(basicSpec())
	if !sort.SliceIsSorted(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Arrival < tr.Requests[j].Arrival
	}) {
		t.Error("requests not sorted by arrival")
	}
	for i, r := range tr.Requests {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < 0 || r.Arrival > tr.Duration {
			t.Fatalf("arrival %v outside [0, %v]", r.Arrival, tr.Duration)
		}
	}
	if tr.NumFuncs != 3 {
		t.Errorf("NumFuncs = %d, want 3", tr.NumFuncs)
	}
}

func TestMeanRPSHonoured(t *testing.T) {
	// Long trace: sample mean within 10% of spec for all stream shapes.
	spec := Spec{
		Duration: 20000,
		Seed:     7,
		Streams: []StreamSpec{
			{Func: 0, MeanRPS: 4},
			{Func: 1, MeanRPS: 4, RateSigma: 0.6},
			{Func: 2, MeanRPS: 4, BurstFactor: 5, BurstFraction: 0.15, BurstLen: 30},
		},
	}
	tr := Generate(spec)
	byFunc := tr.CountByFunc()
	for f := 0; f < 3; f++ {
		got := float64(byFunc[f]) / spec.Duration
		if math.Abs(got-4) > 0.4 {
			t.Errorf("stream %d mean rate = %.2f, want 4±0.4", f, got)
		}
	}
}

// TestCountByFuncIndexOrder: ranging over CountByFunc lists every
// function in index order with its count, so fluidfaas-trace -inspect
// prints the same lines in the same order on every run.
func TestCountByFuncIndexOrder(t *testing.T) {
	const funcs = 8
	var streams []StreamSpec
	for f := 0; f < funcs; f++ {
		streams = append(streams, StreamSpec{Func: f, MeanRPS: 2})
	}
	tr := Generate(Spec{Duration: 60, Seed: 3, Streams: streams})
	want := make([]int, funcs)
	for _, r := range tr.Requests {
		want[r.Func]++
	}
	for rep := 0; rep < 10; rep++ {
		next := 0
		for fn, n := range tr.CountByFunc() {
			if fn != next || n != want[fn] {
				t.Fatalf("pass %d: entry %d is func %d with %d requests, want func %d with %d",
					rep, next, fn, n, next, want[next])
			}
			next++
		}
		if next != funcs {
			t.Fatalf("pass %d: %d functions listed, want %d", rep, next, funcs)
		}
	}
}

func TestBurstsRaisePeakRate(t *testing.T) {
	flat := Generate(Spec{Duration: 2000, Seed: 1,
		Streams: []StreamSpec{{Func: 0, MeanRPS: 10}}})
	bursty := Generate(Spec{Duration: 2000, Seed: 1,
		Streams: []StreamSpec{{Func: 0, MeanRPS: 10, BurstFactor: 6, BurstFraction: 0.1, BurstLen: 40}}})
	if bursty.PeakRate(10) <= flat.PeakRate(10)*1.5 {
		t.Errorf("bursty peak %.1f not clearly above flat peak %.1f",
			bursty.PeakRate(10), flat.PeakRate(10))
	}
}

func TestRateTimeline(t *testing.T) {
	tr := Generate(Spec{Duration: 100, Seed: 3,
		Streams: []StreamSpec{{Func: 0, MeanRPS: 5}}})
	tl := tr.RateTimeline(10)
	if len(tl) != 10 {
		t.Fatalf("timeline buckets = %d, want 10", len(tl))
	}
	sum := 0.0
	for _, r := range tl {
		sum += r * 10
	}
	if int(sum+0.5) != len(tr.Requests) {
		t.Errorf("timeline total %v != request count %d", sum, len(tr.Requests))
	}
	if got := tr.MeanRate(); math.Abs(got-sum/100) > 1e-9 {
		t.Errorf("MeanRate = %v, want %v", got, sum/100)
	}
}

func TestZeroRateStream(t *testing.T) {
	tr := Generate(Spec{Duration: 100, Seed: 1,
		Streams: []StreamSpec{{Func: 0, MeanRPS: 0}}})
	if len(tr.Requests) != 0 {
		t.Errorf("zero-rate stream produced %d requests", len(tr.Requests))
	}
}

func TestGeneratePanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive duration did not panic")
		}
	}()
	Generate(Spec{Duration: 0})
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(basicSpec())
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		if back.Requests[i].Func != tr.Requests[i].Func {
			t.Fatalf("row %d func mismatch", i)
		}
		if math.Abs(back.Requests[i].Arrival-tr.Requests[i].Arrival) > 1e-5 {
			t.Fatalf("row %d arrival mismatch", i)
		}
	}
	if back.NumFuncs != tr.NumFuncs {
		t.Errorf("NumFuncs = %d, want %d", back.NumFuncs, tr.NumFuncs)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"badArrival": "arrival_s,func\nxyz,0\n",
		"badFunc":    "arrival_s,func\n1.5,zz\n",
		"negArrival": "arrival_s,func\n-2,0\n",
		"shortRow":   "arrival_s,func\n1.5\n",
		"negFunc":    "arrival_s,func\n1.5,-1\n",
		// func+1 would overflow NumFuncs.
		"hugeFunc": "arrival_s,func\n1.5,9223372036854775807\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%s) accepted bad input", name)
		}
	}
}

// TestReadCSVNonFiniteArrival: strconv parses NaN and infinities, but no
// arrival can be either — NaN breaks the sort and the event order, and
// an infinite arrival makes the trace endless.
func TestReadCSVNonFiniteArrival(t *testing.T) {
	for _, arrival := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		_, err := ReadCSV(strings.NewReader("arrival_s,func\n1.0,0\n" + arrival + ",0\n"))
		if err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("ReadCSV with arrival %q: err = %v, want a row 2 error", arrival, err)
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader("2.0,1\n1.0,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 || tr.Requests[0].Arrival != 1.0 {
		t.Errorf("headerless parse wrong: %+v", tr.Requests)
	}
}

// Property: generated traces are valid for any sane random spec.
func TestGenerateValidProperty(t *testing.T) {
	f := func(seed int64, rps uint8, sigma uint8) bool {
		tr := Generate(Spec{
			Duration: 200,
			Seed:     seed,
			Streams: []StreamSpec{{
				Func:      0,
				MeanRPS:   float64(rps%20) + 0.5,
				RateSigma: float64(sigma%10) / 10,
			}},
		})
		last := -1.0
		for _, r := range tr.Requests {
			if r.Arrival < last || r.Arrival > 200 {
				return false
			}
			last = r.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiurnalModulation(t *testing.T) {
	tr := Generate(Spec{Duration: 1000, Seed: 5, Streams: []StreamSpec{{
		Func: 0, MeanRPS: 20, DiurnalAmplitude: 0.9, DiurnalPeriod: 1000,
	}}})
	tl := tr.RateTimeline(100)
	// First half-period (sin > 0) must be busier than the second.
	firstHalf, secondHalf := 0.0, 0.0
	for i, r := range tl {
		if i < len(tl)/2 {
			firstHalf += r
		} else {
			secondHalf += r
		}
	}
	if firstHalf <= secondHalf*1.5 {
		t.Errorf("diurnal swing missing: first half %.1f vs second %.1f", firstHalf, secondHalf)
	}
	// Amplitude 0 leaves the trace unmodulated (deterministic check via
	// identical spec minus amplitude).
	flat := Generate(Spec{Duration: 1000, Seed: 5, Streams: []StreamSpec{{
		Func: 0, MeanRPS: 20,
	}}})
	if len(flat.Requests) == len(tr.Requests) {
		t.Log("note: modulated and flat traces coincidentally equal in size")
	}
}

// generateSliceStable is Generate as it stood with the reflective
// sort.SliceStable and one sort over each whole stream: the reference
// for the generic stable sort and for the per-bucket sort.
func generateSliceStable(spec Spec) *Trace {
	bucket := spec.Bucket
	if bucket <= 0 {
		bucket = 10
	}
	var reqs []Request
	maxFunc := 0
	for si, st := range spec.Streams {
		maxFunc = max(maxFunc, st.Func)
		rng := sim.NewRNG(spec.Seed, fmt.Sprintf("trace/stream%d", si))
		arrivals := genStream(st, spec.Duration, bucket, rng)
		sort.Float64s(arrivals)
		for _, a := range arrivals {
			reqs = append(reqs, Request{Func: st.Func, Arrival: a})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i := range reqs {
		reqs[i].ID = i
	}
	return &Trace{Requests: reqs, Duration: spec.Duration, NumFuncs: maxFunc + 1}
}

// TestSortMatchesSliceStable: Generate and sortAndNumber order requests
// exactly as sort.SliceStable did, for several seeds and for a
// hand-built trace whose arrivals tie in long runs (including -0 and
// +0, which compare equal), so the stable order of ties shows. The
// bucket widths 0.1 and 0.3 are not exactly representable, so their
// bucket edges accumulate rounding, and the per-bucket sort must still
// match one sort over each whole stream.
func TestSortMatchesSliceStable(t *testing.T) {
	specs := []Spec{basicSpec()}
	for _, bucket := range []float64{0.1, 0.3} {
		specs = append(specs, Spec{Duration: 120, Bucket: bucket, Streams: []StreamSpec{
			{Func: 0, MeanRPS: 60},
			{Func: 1, MeanRPS: 40, RateSigma: 0.6, BurstFactor: 4, BurstFraction: 0.2, BurstLen: 5},
			{Func: 0, MeanRPS: 25, DiurnalAmplitude: 0.8, DiurnalPeriod: 50},
		}})
	}
	for _, spec := range specs {
		for seed := int64(1); seed <= 6; seed++ {
			spec.Seed = seed
			if got, want := Generate(spec), generateSliceStable(spec); !reflect.DeepEqual(got, want) {
				t.Errorf("bucket %v seed %d: Generate differs from the sort.SliceStable order", spec.Bucket, seed)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	var reqs []Request
	for i := 0; i < 500; i++ {
		arrival := float64(rng.Intn(12))
		if arrival == 0 && rng.Intn(2) == 0 {
			arrival = math.Copysign(0, -1)
		}
		reqs = append(reqs, Request{Func: i, Arrival: arrival})
	}
	got := &Trace{Requests: append([]Request(nil), reqs...)}
	sortAndNumber(got)
	want := append([]Request(nil), reqs...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
	for i := range want {
		want[i].ID = i
	}
	if !reflect.DeepEqual(got.Requests, want) {
		t.Error("tied arrivals left in a different order than sort.SliceStable")
	}
}

// TestGeneratePinned pins Generate's output bit for bit on bursty,
// modulated, diurnal streams that share function indices, against a
// digest taken from the stable-sort implementation, so the merge-based
// ordering cannot drift from it unnoticed.
func TestGeneratePinned(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for seed := int64(1); seed <= 4; seed++ {
		spec := Spec{Duration: 900, Seed: seed}
		for si := 0; si < 6; si++ {
			spec.Streams = append(spec.Streams, StreamSpec{
				Func: si % 4, MeanRPS: float64(3 + 7*si), RateSigma: 0.5,
				BurstFactor: 3, BurstFraction: 0.1, DiurnalAmplitude: 0.3, DiurnalPeriod: 600,
			})
		}
		for _, r := range Generate(spec).Requests {
			put(uint64(r.ID))
			put(uint64(r.Func))
			put(math.Float64bits(r.Arrival))
		}
	}
	const want = "288bea3b91ac3fe1ad4066d559ed45f44af32f276f6f496724e084485db56bc1"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("trace digest %s, want %s", got, want)
	}
}

// scaleSpec is a half-hour trace of about 480k requests over ten
// streams, the size of the scale benchmark's trace.
func scaleSpec() Spec {
	spec := Spec{Duration: 1800, Seed: 1}
	for si := 0; si < 10; si++ {
		spec.Streams = append(spec.Streams, StreamSpec{
			Func: si, MeanRPS: 27, RateSigma: 0.5, BurstFactor: 3, BurstFraction: 0.1,
		})
	}
	return spec
}

func BenchmarkGenerate(b *testing.B) {
	spec := scaleSpec()
	for b.Loop() {
		Generate(spec)
	}
}
