package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/tpch"
)

// bench is one run's state: the workload, its reference results and the
// op and failure counts every phase adds to.
type bench struct {
	wl   workload
	opts options
	ref  map[int][]row
	// supplier is the in-memory supplier table a refresh re-registers.
	supplier *spilly.MemTable
	spans    *tracer // nil unless traced

	attempted atomic.Int64
	failed    atomic.Int64
	fmu       sync.Mutex
	failures  []string

	setups []setupTimes
	// notes are extra summary lines: sample counts and observations.
	notes     []string
	spansFile string
}

// setupTimes is one timed set-up: open, generate and load, store.
type setupTimes struct {
	total, gen, store time.Duration
}

// sample is one measured op.
type sample struct {
	q    int // 0 = refresh
	wall time.Duration
	ok   bool
	st   spilly.Stats
	// self is the query's operator self time by kind (traced engines only).
	self [numKinds]time.Duration
}

// phase is one measured closed-loop phase.
type phase struct {
	samples       []sample
	wall, cpu     time.Duration
	before, after counters
}

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.fmu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.fmu.Unlock()
}

// untraced sets up the workload, runs the measured phase with tracing off
// and returns the end-to-end metrics.
func (b *bench) untraced() (map[string]metric, error) {
	eng, err := b.prepare(b.opts.setupReps, false)
	if err != nil {
		return nil, err
	}
	// Peak RSS covers the measured phase only: drop what set-up left
	// behind, then reset the kernel's high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	ph := b.measure(eng, time.Duration(b.opts.seconds)*time.Second)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	return b.endToEnd(ph, rss), nil
}

// traced runs an untraced phase and a traced phase of half the measured
// time each, on separately set-up engines, and returns the per-layer
// metrics of the traced one; the ratio of their throughputs is the tracing
// overhead.
func (b *bench) traced() (map[string]metric, error) {
	half := time.Duration(b.opts.seconds) * time.Second / 2
	eng, err := b.prepare(b.opts.setupReps, false)
	if err != nil {
		return nil, err
	}
	plain := b.measure(eng, half)
	eng = nil // let prepare's collection reclaim it before the next set-up

	b.spans = newTracer()
	eng, err = b.prepare(1, true)
	if err != nil {
		return nil, err
	}
	ph := b.measure(eng, half)
	build, err := b.buildPass(eng)
	if err != nil {
		return nil, err
	}
	b.spansFile, err = b.spans.write(b.opts.spansDir, fmt.Sprintf("%s-seed%d", b.wl.name, b.opts.seed))
	if err != nil {
		return nil, err
	}
	return b.perLayer(ph, plain, build), nil
}

// prepare loads the reference results (once), sets the engine up reps
// times keeping the last one, and runs one untimed, checked warm-up round.
func (b *bench) prepare(reps int, profile bool) (*spilly.Engine, error) {
	if b.ref == nil {
		if b.wl.sf != refSF {
			return nil, fmt.Errorf("no reference results for SF %v", b.wl.sf)
		}
		ref, err := loadReference()
		if err != nil {
			return nil, err
		}
		b.ref = ref
	}
	cfg := b.wl.cfg
	cfg.Profile = profile
	var eng *spilly.Engine
	for i := 0; i < reps; i++ {
		eng = nil
		runtime.GC()
		var (
			st  setupTimes
			err error
		)
		eng, st, err = b.setup(cfg)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, st)
	}
	for q := 1; q <= numQueries; q++ {
		b.do(eng, op{q: q})
	}
	// The warm-up fills pools; the measured phase starts with cold caches.
	eng.ClearCaches()
	return eng, nil
}

// setup opens an engine, generates and loads the tables in memory, and
// stores them on the table array when the workload scans externally.
func (b *bench) setup(cfg spilly.Config) (*spilly.Engine, setupTimes, error) {
	var st setupTimes
	root := b.spans.begin("load", 0, 0, 0)
	defer b.spans.end(root)
	start := time.Now()
	eng, err := spilly.Open(cfg)
	if err != nil {
		return nil, st, err
	}
	sp := b.spans.begin("generate", root, 0, 0)
	genStart := time.Now()
	if err := eng.LoadTPCH(b.wl.sf, false); err != nil {
		return nil, st, err
	}
	st.gen = time.Since(genStart)
	b.spans.end(sp)
	t, err := eng.Table("supplier")
	if err != nil {
		return nil, st, err
	}
	mt, ok := t.(*spilly.MemTable)
	if !ok {
		return nil, st, fmt.Errorf("supplier is not an in-memory table")
	}
	b.supplier = mt
	if b.wl.onArray {
		tables := eng.TPCH().Tables
		names := make([]string, 0, len(tables))
		for name := range tables {
			names = append(names, name)
		}
		sort.Strings(names)
		storeStart := time.Now()
		for _, name := range names {
			sp := b.spans.begin("store", root, 0, 0)
			err := eng.StoreOnArray(name)
			b.spans.end(sp)
			if err != nil {
				return nil, st, fmt.Errorf("store %s: %w", name, err)
			}
		}
		st.store = time.Since(storeStart)
	}
	st.total = time.Since(start)
	return eng, st, nil
}

// measure runs the workload's closed loop for at least d and at least
// opts.minOps ops, ending between rounds.
func (b *bench) measure(eng *spilly.Engine, d time.Duration) *phase {
	s := newStream(b.wl, b.opts.seed)
	deadline := time.Now().Add(d)
	minOps := int64(b.opts.minOps)
	stop := func(done int64) bool { return done >= minOps && time.Now().After(deadline) }
	ph := &phase{before: snapshot(eng)}
	cpu0 := cpuTime()
	start := time.Now()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for c := 0; c < b.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := s.take(stop)
				if !ok {
					return
				}
				smp := b.do(eng, o)
				mu.Lock()
				ph.samples = append(ph.samples, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.after = snapshot(eng)
	return ph
}

// do runs one op, checks its result and returns its sample.
func (b *bench) do(eng *spilly.Engine, o op) sample {
	b.attempted.Add(1)
	if o.q == 0 {
		sp := b.spans.begin("refresh", 0, o.seq, 0)
		start := time.Now()
		eng.RegisterTable(b.supplier)
		err := eng.StoreOnArray("supplier")
		smp := sample{wall: time.Since(start), ok: err == nil}
		b.spans.end(sp)
		if err != nil {
			b.fail("op %d refresh: %v", o.seq, err)
		}
		return smp
	}
	sp := b.spans.begin("run", 0, o.seq, o.q)
	start := time.Now()
	res, err := eng.RunTPCH(o.q)
	wall := time.Since(start)
	b.spans.end(sp)
	smp := sample{q: o.q, wall: wall}
	if err != nil {
		b.fail("op %d Q%d: %v", o.seq, o.q, err)
		return smp
	}
	if err := diff(b.ref[o.q], canonical(res.Batch)); err != nil {
		b.fail("op %d Q%d: result mismatch: %v", o.seq, o.q, err)
		return smp
	}
	smp.ok = true
	smp.st = res.Stats
	if p := res.Profile(); p != nil {
		smp.self = selfByKind(p)
	}
	return smp
}

// buildPass times tpch.BuildQuery for every query on a context that is
// then discarded (Q11, Q15 and Q22 run scalar subqueries while building).
func (b *bench) buildPass(eng *spilly.Engine) ([]time.Duration, error) {
	var out []time.Duration
	for q := 1; q <= numQueries; q++ {
		ctx := eng.NewCtx()
		sp := b.spans.begin("build", 0, 0, q)
		start := time.Now()
		_, err := tpch.BuildQuery(ctx, eng.TPCH(), q)
		out = append(out, time.Since(start))
		b.spans.end(sp)
		ctx.Close()
		if err != nil {
			return nil, fmt.Errorf("build Q%d: %w", q, err)
		}
	}
	return out, nil
}
