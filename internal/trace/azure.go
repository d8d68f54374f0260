package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fluidfaas/internal/sim"
)

// Caps on what an Azure-format trace may ask for. Each count cell is
// expanded into that many requests, so without them one short row
// (",0000000000010000000" is 20 bytes) could demand 10^7 requests and
// exhaust memory. ReadAzureCSV returns an error past either cap.
const (
	// MaxAzureCellCount is the most invocations one function may have in
	// one minute (about 1,100 req/s).
	MaxAzureCellCount = 1 << 16
	// MaxAzureRequests is the most requests a whole trace may expand to.
	MaxAzureRequests = 1 << 21
)

// ReadAzureCSV parses a trace in the Azure Functions 2019 dataset
// format [47]: one row per function, with a hash column followed by
// per-minute invocation counts:
//
//	HashFunction,1,2,3,...,1440
//	f1,0,3,12,...
//	f2,1,0,4,...
//
// Rows are mapped to function indices 0..n-1 in file order (optionally
// remapped via funcOf). Counts are turned into arrivals by spreading
// each minute's invocations uniformly at random within the minute,
// seeded for reproducibility — the same convention the paper uses to
// drive invocation frequencies and intervals from the dataset.
//
// minutes limits how much of the trace is replayed (0 = all columns).
// A cell above MaxAzureCellCount, or a trace above MaxAzureRequests in
// all, is an error.
func ReadAzureCSV(r io.Reader, seed int64, minutes int) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: azure csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: azure csv: empty file")
	}
	start := 0
	// Skip the dataset's header row ("HashFunction,1,2,...": the count
	// column labels are numeric, so the hash-column name marks it).
	if strings.HasPrefix(rows[0][0], "Hash") {
		start = 1
	}
	data := rows[start:]
	if len(data) == 0 {
		return nil, fmt.Errorf("trace: azure csv: no function rows")
	}

	t := &Trace{}
	var ns []int
	for fi, row := range data {
		if len(row) < 2 {
			return nil, fmt.Errorf("trace: azure csv: row %d has no counts", fi+start)
		}
		counts := row[1:]
		if minutes > 0 && len(counts) > minutes {
			counts = counts[:minutes]
		}
		// Check the whole row against the caps before expanding any of it.
		ns = ns[:0]
		total := len(t.Requests)
		for m, cell := range counts {
			n, err := strconv.Atoi(cell)
			if err != nil {
				return nil, fmt.Errorf("trace: azure csv: row %d minute %d: %w", fi+start, m+1, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("trace: azure csv: row %d minute %d: negative count", fi+start, m+1)
			}
			if n > MaxAzureCellCount {
				return nil, fmt.Errorf("trace: azure csv: row %d minute %d: count %d exceeds the per-minute cap %d",
					fi+start, m+1, n, MaxAzureCellCount)
			}
			if total += n; total > MaxAzureRequests {
				return nil, fmt.Errorf("trace: azure csv: row %d minute %d: trace exceeds the cap of %d requests",
					fi+start, m+1, MaxAzureRequests)
			}
			ns = append(ns, n)
		}
		rng := sim.NewRNG(seed, fmt.Sprintf("azure/%s", row[0]))
		for m, n := range ns {
			for k := 0; k < n; k++ {
				t.Requests = append(t.Requests, Request{
					Func:    fi,
					Arrival: float64(m)*60 + rng.Float64()*60,
				})
			}
		}
		if fi+1 > t.NumFuncs {
			t.NumFuncs = fi + 1
		}
		if d := float64(len(counts)) * 60; d > t.Duration {
			t.Duration = d
		}
	}
	sortAndNumber(t)
	return t, nil
}

// Scale returns a copy of the trace with arrival density scaled: factor
// 2 doubles the request rate by halving inter-arrival gaps (duration
// shrinks accordingly); factor 0.5 halves it. Used to sweep trace
// intensity without re-deriving the shape.
func (t *Trace) Scale(factor float64) *Trace {
	if factor <= 0 {
		panic("trace: non-positive scale factor")
	}
	out := &Trace{
		Requests: make([]Request, len(t.Requests)),
		Duration: t.Duration / factor,
		NumFuncs: t.NumFuncs,
	}
	for i, r := range t.Requests {
		out.Requests[i] = Request{ID: i, Func: r.Func, Arrival: r.Arrival / factor}
	}
	return out
}

// Window returns the sub-trace with arrivals in [from, to), re-based to
// time zero.
func (t *Trace) Window(from, to float64) *Trace {
	if to <= from {
		panic("trace: empty window")
	}
	out := &Trace{Duration: to - from, NumFuncs: t.NumFuncs}
	for _, r := range t.Requests {
		if r.Arrival >= from && r.Arrival < to {
			out.Requests = append(out.Requests, Request{
				Func: r.Func, Arrival: r.Arrival - from,
			})
		}
	}
	for i := range out.Requests {
		out.Requests[i].ID = i
	}
	return out
}

// Merge combines traces into one (function indices must already be
// disjoint or intentionally shared).
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, t := range traces {
		out.Requests = append(out.Requests, t.Requests...)
		if t.Duration > out.Duration {
			out.Duration = t.Duration
		}
		if t.NumFuncs > out.NumFuncs {
			out.NumFuncs = t.NumFuncs
		}
	}
	sortAndNumber(out)
	return out
}
