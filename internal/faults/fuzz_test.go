package faults

import (
	"encoding/binary"
	"math"
	"testing"

	"fluidfaas/internal/sim"
)

// fuzzEventSize is the encoded size of one script event: kind, node,
// gpu and slice as one signed byte each, then the bits of Time,
// Recovery and Severity as little-endian uint64s.
const fuzzEventSize = 4 + 3*8

// decodeScript turns fuzz bytes into a script, one event per
// fuzzEventSize bytes; a trailing partial event is ignored. Small
// signed indices reach both in-range and out-of-range victims, and raw
// float bits reach NaN, ±Inf, negatives and subnormals.
func decodeScript(data []byte) []Event {
	var script []Event
	for ; len(data) >= fuzzEventSize; data = data[fuzzEventSize:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[4+8*i:])) }
		script = append(script, Event{
			Kind: Kind(int8(data[0])), Node: int(int8(data[1])),
			GPU: int(int8(data[2])), Slice: int(int8(data[3])),
			Time: f(0), Recovery: f(1), Severity: f(2),
		})
	}
	return script
}

// encodeScript is decodeScript's inverse, for seeds.
func encodeScript(script []Event) []byte {
	var out []byte
	for _, e := range script {
		out = append(out, byte(int8(e.Kind)), byte(int8(e.Node)), byte(int8(e.GPU)), byte(int8(e.Slice)))
		for _, x := range []float64{e.Time, e.Recovery, e.Severity} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

// FuzzValidateScript: ValidateScript never panics, and a script it
// accepts holds what Build and the platform rely on: every event
// strikes at a finite time >= 0 and recovers at a finite later time,
// every degraded event carries a finite severity >= 1, Build returns
// it without panicking, and the engine accepts every fault and repair
// time.
func FuzzValidateScript(f *testing.F) {
	f.Add(encodeScript([]Event{
		{Time: 10, Kind: SliceFault, Node: 0, GPU: 1, Slice: 2, Recovery: 40},
		{Time: 50, Kind: GPUFault, Node: 1, GPU: 0, Slice: -1, Recovery: 120},
		{Time: 60, Kind: NodeCrash, Node: 1, GPU: -1, Slice: -1, Recovery: 200},
		{Time: 70, Kind: SliceDegraded, Node: 0, GPU: 0, Slice: 0, Recovery: 100, Severity: 3},
	}))
	f.Add(encodeScript([]Event{{Time: math.NaN(), Kind: SliceFault, Recovery: 5}}))
	f.Add(encodeScript([]Event{{Time: -3, Kind: NodeCrash, GPU: -1, Slice: -1, Recovery: 5}}))
	f.Add(encodeScript([]Event{{Time: 1, Kind: SliceDegraded, Recovery: 5, Severity: math.NaN()}}))
	f.Add(encodeScript([]Event{{Time: 1, Kind: GPUFault, Slice: -1, Recovery: math.Inf(1)}}))
	f.Add(encodeScript([]Event{
		{Time: 10, Kind: SliceFault, Recovery: 40},
		{Time: 30, Kind: SliceFault, Recovery: 60},
	}))
	f.Add([]byte{})
	topo := testTopo()
	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeScript(data)
		if ValidateScript(script, topo) != nil {
			return
		}
		for i, e := range script {
			if !finite(e.Time) || e.Time < 0 {
				t.Fatalf("script[%d]: accepted fault time %v", i, e.Time)
			}
			if !finite(e.Recovery) || e.Recovery <= e.Time {
				t.Fatalf("script[%d]: accepted recovery %v for fault time %v", i, e.Recovery, e.Time)
			}
			if e.Kind == SliceDegraded && (!finite(e.Severity) || e.Severity < 1) {
				t.Fatalf("script[%d]: accepted severity %v", i, e.Severity)
			}
		}
		sched := Build(Spec{Script: script}, 1, 100, topo)
		if sched.Len() != len(script) {
			t.Fatalf("Build returned %d events for a %d-event script", sched.Len(), len(script))
		}
		eng := sim.NewEngine()
		for _, e := range sched.Events {
			eng.At(e.Time, func() {})
			eng.At(e.Recovery, func() {})
		}
		eng.Run()
	})
}
