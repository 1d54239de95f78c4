package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/spilly-db/spilly"
)

// relTol is the relative tolerance for float columns: parallel and spilled
// aggregation sums in a different order, so the last bits may differ.
// absTol covers values that should be zero.
const (
	relTol = 1e-9
	absTol = 1e-9
)

// refSF is the scale factor the committed reference results are for.
const refSF = 0.05

// referenceFile holds the expected result of every TPC-H query at refSF.
// It is committed, not computed by the build under test, so a change that
// makes the engine return wrong rows cannot also change what it is checked
// against. TestReference regenerates it with -update.
const referenceFile = "testdata/reference-sf0.05.json"

//go:embed testdata/reference-sf0.05.json
var referenceJSON []byte

// refResult is one query's stored result: a type letter per column (f float,
// s string, i integer, date or bool) and the rows, with null for NULL.
type refResult struct {
	Types string  `json:"types"`
	Rows  [][]any `json:"rows"`
}

// row is one result row in comparable form.
type row struct {
	key    string    // every non-float column (and float NULLs), exact
	floats []float64 // float columns, compared at relTol
}

// rowBuilder assembles a row one column at a time.
type rowBuilder struct {
	sb strings.Builder
	fs []float64
}

func (rb *rowBuilder) null(float bool) {
	rb.sb.WriteString("\x00N")
	if float {
		rb.fs = append(rb.fs, 0)
	}
}

func (rb *rowBuilder) str(s string) {
	rb.sb.WriteString("\x00s")
	rb.sb.WriteString(s)
}

func (rb *rowBuilder) int(v int64) {
	rb.sb.WriteString("\x00i")
	rb.sb.WriteString(strconv.FormatInt(v, 10))
}

func (rb *rowBuilder) float(v float64) { rb.fs = append(rb.fs, v) }

func (rb *rowBuilder) row() row {
	r := row{key: rb.sb.String(), floats: rb.fs}
	rb.sb.Reset()
	rb.fs = nil
	return r
}

// typeLetter is a column type's letter in refResult.Types.
func typeLetter(t spilly.Type) byte {
	switch t {
	case spilly.Float64:
		return 'f'
	case spilly.String:
		return 's'
	}
	return 'i'
}

// canonical returns a batch's rows sorted, so that results that differ only
// in the order of rows the query leaves unordered compare equal.
func canonical(b *spilly.Batch) []row {
	if b == nil {
		return nil
	}
	rows := make([]row, b.Rows())
	var rb rowBuilder
	for i := range rows {
		r := b.Row(i)
		for c := range b.Cols {
			col := &b.Cols[c]
			t := typeLetter(col.Type)
			switch {
			case col.Null != nil && col.Null[r]:
				rb.null(t == 'f')
			case t == 'f':
				rb.float(col.F[r])
			case t == 's':
				rb.str(col.S[r])
			default:
				rb.int(col.I[r])
			}
		}
		rows[i] = rb.row()
	}
	sortRows(rows)
	return rows
}

// canonicalRef returns a stored result's rows in canonical form.
func canonicalRef(res refResult) ([]row, error) {
	rows := make([]row, len(res.Rows))
	var rb rowBuilder
	for i, vals := range res.Rows {
		if len(vals) != len(res.Types) {
			return nil, fmt.Errorf("row %d has %d columns, want %d", i, len(vals), len(res.Types))
		}
		for c, v := range vals {
			t := res.Types[c]
			if v == nil {
				rb.null(t == 'f')
				continue
			}
			var err error
			switch t {
			case 'f':
				var f float64
				f, err = v.(json.Number).Float64()
				rb.float(f)
			case 's':
				rb.str(v.(string))
			default:
				var n int64
				n, err = v.(json.Number).Int64()
				rb.int(n)
			}
			if err != nil {
				return nil, fmt.Errorf("row %d column %d: %w", i, c, err)
			}
		}
		rows[i] = rb.row()
	}
	sortRows(rows)
	return rows, nil
}

func sortRows(rows []row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.key != b.key {
			return a.key < b.key
		}
		for k := range a.floats {
			if a.floats[k] != b.floats[k] {
				return a.floats[k] < b.floats[k]
			}
		}
		return false
	})
}

// loadReference decodes the committed reference results, keyed by query.
func loadReference() (map[int][]row, error) {
	dec := json.NewDecoder(bytes.NewReader(referenceJSON))
	dec.UseNumber()
	var stored map[string]refResult
	if err := dec.Decode(&stored); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	ref := map[int][]row{}
	for q := 1; q <= numQueries; q++ {
		res, ok := stored[strconv.Itoa(q)]
		if !ok {
			return nil, fmt.Errorf("%s: no result for Q%d", referenceFile, q)
		}
		rows, err := canonicalRef(res)
		if err != nil {
			return nil, fmt.Errorf("%s: Q%d: %w", referenceFile, q, err)
		}
		ref[q] = rows
	}
	return ref, nil
}

// storedResult converts a batch to the form the reference file holds.
func storedResult(b *spilly.Batch) (refResult, error) {
	var res refResult
	types := make([]byte, len(b.Cols))
	for c := range b.Cols {
		types[c] = typeLetter(b.Cols[c].Type)
	}
	res.Types = string(types)
	res.Rows = make([][]any, b.Rows())
	for i := range res.Rows {
		r := b.Row(i)
		vals := make([]any, len(b.Cols))
		for c := range b.Cols {
			col := &b.Cols[c]
			switch {
			case col.Null != nil && col.Null[r]:
			case types[c] == 'f':
				if math.IsNaN(col.F[r]) || math.IsInf(col.F[r], 0) {
					return res, fmt.Errorf("row %d column %d: %v has no JSON form", i, c, col.F[r])
				}
				// Twelve significant digits are far inside relTol and
				// drop the last bits that vary with summation order.
				vals[c] = json.Number(strconv.FormatFloat(col.F[r], 'g', 12, 64))
			case types[c] == 's':
				vals[c] = col.S[r]
			default:
				vals[c] = col.I[r]
			}
		}
		res.Rows[i] = vals
	}
	return res, nil
}

// formatReference writes the reference results as JSON with one row a line,
// queries in order, so that a regenerated file diffs by row.
func formatReference(stored map[string]refResult) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for q := 1; q <= numQueries; q++ {
		res := stored[strconv.Itoa(q)]
		fmt.Fprintf(&buf, "%q: {\"types\": %q, \"rows\": [", strconv.Itoa(q), res.Types)
		for i, vals := range res.Rows {
			line, err := json.Marshal(vals)
			if err != nil {
				return nil, fmt.Errorf("Q%d row %d: %w", q, i, err)
			}
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString("\n  ")
			buf.Write(line)
		}
		buf.WriteString("\n]}")
		if q < numQueries {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// diff reports the first difference between a result and its reference.
func diff(want, got []row) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.key != g.key || len(w.floats) != len(g.floats) {
			return fmt.Errorf("row %d: key %q, want %q", i, g.key, w.key)
		}
		for k := range w.floats {
			if !floatEq(w.floats[k], g.floats[k]) {
				return fmt.Errorf("row %d float %d: %v, want %v", i, k, g.floats[k], w.floats[k])
			}
		}
	}
	return nil
}

func floatEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= absTol || d <= relTol*math.Max(math.Abs(a), math.Abs(b))
}
