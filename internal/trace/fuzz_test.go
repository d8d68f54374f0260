package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// checkParsed asserts what every accepted trace promises its consumers:
// requests sorted by arrival and numbered in order, finite arrivals in
// [0, Duration], function indices in [0, NumFuncs).
func checkParsed(t *testing.T, tr *Trace) {
	t.Helper()
	for i, r := range tr.Requests {
		switch {
		case r.ID != i:
			t.Fatalf("request %d numbered %d", i, r.ID)
		case i > 0 && r.Arrival < tr.Requests[i-1].Arrival:
			t.Fatalf("request %d arrives at %v, before request %d at %v", i, r.Arrival, i-1, tr.Requests[i-1].Arrival)
		case math.IsNaN(r.Arrival) || r.Arrival < 0 || r.Arrival > tr.Duration:
			t.Fatalf("request %d arrives at %v, outside [0, %v]", i, r.Arrival, tr.Duration)
		case r.Func < 0 || r.Func >= tr.NumFuncs:
			t.Fatalf("request %d names function %d of %d", i, r.Func, tr.NumFuncs)
		}
	}
}

// FuzzReadAzureCSV: any input parses into a valid trace within the
// request caps, the same one on a second read, or fails with an error.
func FuzzReadAzureCSV(f *testing.F) {
	f.Add(azureSample, int64(1), 0)
	f.Add("f,1,x\n", int64(1), 0)
	f.Add(",0000000000010000000", int64(3), 0)
	f.Add("HashFunction,1,2\nf,65536,65536\ng,3\n", int64(2), 1)
	f.Add("\"a\nb\",2,\"3\"\nc,0", int64(5), -4)
	f.Fuzz(func(t *testing.T, data string, seed int64, minutes int) {
		tr, err := ReadAzureCSV(strings.NewReader(data), seed, minutes)
		if err != nil {
			return
		}
		if len(tr.Requests) > MaxAzureRequests {
			t.Fatalf("%d requests, over the cap %d", len(tr.Requests), MaxAzureRequests)
		}
		checkParsed(t, tr)
		again, err := ReadAzureCSV(strings.NewReader(data), seed, minutes)
		if err != nil || !reflect.DeepEqual(tr, again) {
			t.Fatalf("second read differs (err %v)", err)
		}
	})
}

// FuzzReadCSV: any input parses into a valid trace or fails with an
// error, and an accepted trace survives a WriteCSV round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("arrival_s,func\n1.5,0\n0.25,2\n")
	f.Add("2.0,1\n1.0,0\n")
	f.Add("arrival_s,func\nNaN,0\n")
	f.Add("arrival_s,func\n1.5,-1\n")
	f.Add("arrival_s,func\n1e308,1048575\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, tr)
		if tr.NumFuncs > MaxFuncs {
			t.Fatalf("%d functions, over the cap %d", tr.NumFuncs, MaxFuncs)
		}
		var buf strings.Builder
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()))
		if err != nil || len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip: %d requests, err %v; want %d", len(back.Requests), err, len(tr.Requests))
		}
	})
}
