package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/spilly-db/spilly"
)

var update = flag.Bool("update", false, "rewrite "+referenceFile+" from a plain in-memory engine")

// spec is the part of BENCHMARK.json the test checks the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestShortRuns runs every workload briefly, untraced on one seed and traced
// on another, and checks that no op fails, that every metric BENCHMARK.json
// names is reported as a finite value with its unit, and that each workload
// bypasses the layers it is meant to leave idle. inmem-sweep, which
// BENCHMARK.json does not list, runs too: it is the control for the bypass
// predictions.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		t.Fatal(err)
	}
	names := []string{"inmem-sweep"}
	for _, wl := range sp.Workloads {
		if wl.Name != "inmem-sweep" {
			names = append(names, wl.Name)
		}
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			o := options{
				workload:  name,
				seed:      1,
				seconds:   1,
				trace:     traced,
				setupReps: 1,
				minOps:    numQueries,
				spansDir:  t.TempDir(),
			}
			want := sp.EndToEnd
			if traced {
				o.seed = 2
				want = sp.PerLayer
			}
			rep, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < numQueries {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				checkBypass(t, name, rep.Metrics)
			}
		}
	}
}

// checkBypass checks each workload's prediction for the layers it leaves
// idle: the in-memory sweep neither spills nor caches, and the serial spill
// sweep never queues for admission.
func checkBypass(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	switch name {
	case "inmem-sweep":
		for n, v := range m {
			if (n == "core.spilled_mb" || strings.HasPrefix(n, "cache.")) && v.Value != 0 {
				t.Errorf("inmem-sweep: %s = %v, want 0", n, v.Value)
			}
		}
	case "spill-sweep":
		if v := m["pages.admission_wait_ms"].Value; v != 0 {
			t.Errorf("spill-sweep: pages.admission_wait_ms = %v, want 0", v)
		}
		if v := m["core.spilled_mb"].Value; v == 0 {
			t.Errorf("spill-sweep: core.spilled_mb = 0, want spilling")
		}
	}
}

// newReferenceEngine opens a plain in-memory engine with the TPC-H tables at
// the reference scale factor.
func newReferenceEngine(t *testing.T) *spilly.Engine {
	t.Helper()
	eng, err := spilly.Open(spilly.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTPCH(refSF, false); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReference checks the committed reference results against a plain
// in-memory engine, or with -update rewrites them from it.
func TestReference(t *testing.T) {
	eng := newReferenceEngine(t)
	var ref map[int][]row
	if !*update {
		var err error
		if ref, err = loadReference(); err != nil {
			t.Fatal(err)
		}
	}
	stored := map[string]refResult{}
	for q := 1; q <= numQueries; q++ {
		res, err := eng.RunTPCH(q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if !*update {
			if err := diff(ref[q], canonical(res.Batch)); err != nil {
				t.Errorf("Q%d: %v", q, err)
			}
			continue
		}
		if stored[strconv.Itoa(q)], err = storedResult(res.Batch); err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
	}
	if !*update {
		return
	}
	buf, err := formatReference(stored)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referenceFile, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWrongResultCounted checks that a result differing from its reference
// in one float beyond the tolerance, or in one string, is a failed op, and
// that a difference inside the tolerance is not.
func TestWrongResultCounted(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	eng := newReferenceEngine(t)
	b := &bench{wl: workloads["inmem-sweep"], ref: ref}
	corrupt := func(q int, edit func(r *row)) {
		rows := append([]row(nil), ref[q]...)
		r := rows[0]
		r.floats = append([]float64(nil), r.floats...)
		edit(&r)
		rows[0] = r
		b.ref[q] = rows
	}
	check := func(q int, wantOK bool) {
		t.Helper()
		before := b.failed.Load()
		smp := b.do(eng, op{q: q})
		if failed := b.failed.Load() - before; smp.ok != wantOK || (failed == 0) != wantOK {
			t.Errorf("Q%d: ok=%v and %d failed, want ok=%v", q, smp.ok, failed, wantOK)
		}
	}
	check(1, true)
	corrupt(1, func(r *row) { r.floats[0] *= 1 + 1e-12 })
	check(1, true)
	corrupt(1, func(r *row) { r.floats[0] *= 1 + 1e-6 })
	check(1, false)
	corrupt(3, func(r *row) { r.key += "x" })
	check(3, false)
	b.ref[6] = b.ref[6][:0]
	check(6, false)
	if b.attempted.Load() != 5 || b.failed.Load() != 3 {
		t.Errorf("attempted=%d failed=%d, want 5 and 3", b.attempted.Load(), b.failed.Load())
	}
}
