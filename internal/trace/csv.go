package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV serialises the trace as "arrival,func" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arrival_s", "func"}); err != nil {
		return err
	}
	for _, r := range t.Requests {
		rec := []string{
			strconv.FormatFloat(r.Arrival, 'f', 6, 64),
			strconv.Itoa(r.Func),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxFuncs bounds the function indices a trace file may name.
const MaxFuncs = 1 << 20

// ReadCSV parses a trace written by WriteCSV (or a real trace excerpt in
// the same format). Rows are re-sorted by arrival and re-numbered. A
// function index must lie in [0, MaxFuncs).
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	start := 0
	if rows[0][0] == "arrival_s" {
		start = 1
	}
	t := &Trace{}
	for i, row := range rows[start:] {
		if len(row) < 2 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 2", i+start, len(row))
		}
		arrival, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d arrival: %w", i+start, err)
		}
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
			return nil, fmt.Errorf("trace: row %d arrival %q is not finite", i+start, row[0])
		}
		if arrival < 0 {
			return nil, fmt.Errorf("trace: row %d negative arrival", i+start)
		}
		fn, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d func: %w", i+start, err)
		}
		if fn < 0 || fn >= MaxFuncs {
			return nil, fmt.Errorf("trace: row %d func %d outside [0, %d)", i+start, fn, MaxFuncs)
		}
		t.Requests = append(t.Requests, Request{Func: fn, Arrival: arrival})
		if arrival > t.Duration {
			t.Duration = arrival
		}
		if fn+1 > t.NumFuncs {
			t.NumFuncs = fn + 1
		}
	}
	sortAndNumber(t)
	return t, nil
}
