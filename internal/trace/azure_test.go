package trace

import (
	"strconv"
	"strings"
	"testing"
)

const azureSample = `HashFunction,1,2,3
appA,2,0,4
appB,0,1,0
`

func TestReadAzureCSV(t *testing.T) {
	tr, err := ReadAzureCSV(strings.NewReader(azureSample), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 7 {
		t.Fatalf("requests = %d, want 7 (2+4+1)", len(tr.Requests))
	}
	if tr.NumFuncs != 2 {
		t.Errorf("NumFuncs = %d, want 2", tr.NumFuncs)
	}
	if tr.Duration != 180 {
		t.Errorf("Duration = %v, want 180 (3 minutes)", tr.Duration)
	}
	by := tr.CountByFunc()
	if by[0] != 6 || by[1] != 1 {
		t.Errorf("per-func counts = %v", by)
	}
	// Arrivals land within their source minute.
	minuteOf := map[int][]int{0: {0, 0, 2, 2, 2, 2}, 1: {1}}
	got := map[int][]int{}
	for _, r := range tr.Requests {
		got[r.Func] = append(got[r.Func], int(r.Arrival/60))
	}
	for fn, want := range minuteOf {
		g := got[fn]
		if len(g) != len(want) {
			t.Fatalf("func %d arrivals = %v", fn, g)
		}
		// Sort-insensitive multiset compare.
		cnt := map[int]int{}
		for _, m := range want {
			cnt[m]++
		}
		for _, m := range g {
			cnt[m]--
		}
		for m, c := range cnt {
			if c != 0 {
				t.Errorf("func %d minute %d off by %d", fn, m, c)
			}
		}
	}
}

func TestReadAzureCSVDeterministic(t *testing.T) {
	a, _ := ReadAzureCSV(strings.NewReader(azureSample), 7, 0)
	b, _ := ReadAzureCSV(strings.NewReader(azureSample), 7, 0)
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("azure parse not deterministic")
		}
	}
	c, _ := ReadAzureCSV(strings.NewReader(azureSample), 8, 0)
	same := true
	for i := range a.Requests {
		if a.Requests[i].Arrival != c.Requests[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical arrival jitter")
	}
}

func TestReadAzureCSVMinutesLimit(t *testing.T) {
	tr, err := ReadAzureCSV(strings.NewReader(azureSample), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 { // minutes 1-2 only: 2+0 and 0+1
		t.Errorf("requests = %d, want 3", len(tr.Requests))
	}
	if tr.Duration != 120 {
		t.Errorf("Duration = %v, want 120", tr.Duration)
	}
}

func TestReadAzureCSVNoHeader(t *testing.T) {
	tr, err := ReadAzureCSV(strings.NewReader("fnX,1,1\n"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Errorf("requests = %d, want 2", len(tr.Requests))
	}
}

func TestReadAzureCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"headerOnly": "HashFunction,1,2\n",
		"badCount":   "f,1,x\n",
		"negative":   "f,-3\n",
		"noCounts":   "HashFunction,1\nf\n",
		// 20 bytes asking for 10^7 requests in one cell.
		"cellCap": ",0000000000010000000",
		// Every cell under the per-minute cap, the trace over the total.
		"totalCap": "f," + strings.Repeat(strconv.Itoa(MaxAzureCellCount)+",", MaxAzureRequests/MaxAzureCellCount) + "1\n",
	} {
		if _, err := ReadAzureCSV(strings.NewReader(in), 1, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
