package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/spilly-db/spilly"
	"github.com/spilly-db/spilly/internal/trace"
)

// Operator kinds exec.self_ms is split into.
const numKinds = 7

var kindNames = [numKinds]string{"scan", "filter", "project", "join", "agg", "sort", "other"}

func kindOf(op string) int {
	for i, k := range kindNames[:numKinds-1] {
		if op == k {
			return i
		}
	}
	return numKinds - 1
}

// selfByKind sums a profile's operator self times by operator kind.
func selfByKind(p *spilly.Profile) [numKinds]time.Duration {
	var out [numKinds]time.Duration
	var walk func(ns []*trace.ProfileNode)
	walk = func(ns []*trace.ProfileNode) {
		for _, n := range ns {
			out[kindOf(n.Op)] += n.Self
			walk(n.Children)
		}
	}
	walk(p.Roots)
	return out
}

// counters is a flat snapshot of the engine's cumulative public counters;
// per-layer metrics use the difference of two snapshots.
type counters map[string]float64

var ioClasses = [...]string{"demand", "spill_write", "prefetch", "background"}

func snapshot(e *spilly.Engine) counters {
	c := counters{}
	rc := e.ResultCacheStats()
	c["cache.hits"] = float64(rc.Hits)
	c["cache.hits_memory"] = float64(rc.HitsMemory)
	c["cache.misses"] = float64(rc.Misses)
	c["cache.puts"] = float64(rc.Puts)
	c["cache.rejects"] = float64(rc.Rejects)
	c["cache.demotions"] = float64(rc.Demotions)
	c["cache.invalidated"] = float64(rc.Invalidated)
	bc := e.BufferCacheStats()
	c["bufcache.hits"] = float64(bc.Hits)
	c["bufcache.misses"] = float64(bc.Misses)
	for _, s := range e.IOSchedSnapshots() {
		for i, cl := range ioClasses {
			c["iosched."+s.Name+".dispatched."+cl] = float64(s.Stats.Classes[i].Dispatched)
			c["iosched."+s.Name+".deferred"] += float64(s.Stats.Classes[i].Deferred)
			c["iosched."+s.Name+".dispatched"] += float64(s.Stats.Classes[i].Dispatched)
		}
		c["iosched.promoted"] += float64(s.Stats.Promoted)
		c["iosched.aged"] += float64(s.Stats.Aged)
	}
	for _, d := range e.SpillArray().PerDevice() {
		c["nvmesim.spill.read_bytes"] += float64(d.BytesRead)
		c["nvmesim.spill.write_bytes"] += float64(d.BytesWritten)
		c["nvmesim.spill.ios"] += float64(d.Reads + d.Writes)
	}
	for _, d := range e.TableArray().PerDevice() {
		c["nvmesim.table.read_bytes"] += float64(d.BytesRead)
		c["nvmesim.table.write_bytes"] += float64(d.BytesWritten)
		c["nvmesim.table.ios"] += float64(d.Reads + d.Writes)
	}
	gs := e.GovernorStats()
	c["pages.timeouts"] = float64(gs.Timeouts)
	c["pages.wait_ns"] = float64(gs.WaitTotal)
	f := e.Faults().Snapshot()
	c["metrics.retries"] = float64(f.Retries)
	c["metrics.failovers"] = float64(f.Failovers)
	return c
}

// delta is after minus before for one counter.
func (ph *phase) delta(name string) float64 { return ph.after[name] - ph.before[name] }

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// queries returns the phase's completed query samples.
func (ph *phase) queries() []sample {
	var out []sample
	for _, s := range ph.samples {
		if s.q != 0 && s.ok {
			out = append(out, s)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (b *bench) endToEnd(ph *phase, rssMB float64) map[string]metric {
	qs := ph.queries()
	lat := make([]float64, len(qs))
	byQuery := map[int][]float64{}
	for i, s := range qs {
		lat[i] = durMs(s.wall)
		// A cache hit executes nothing; per-type medians over a mix of
		// hits and executions jump between the two run to run.
		if !s.st.ResultCacheHit {
			byQuery[s.q] = append(byQuery[s.q], lat[i])
		}
	}
	sort.Float64s(lat)
	p90 := quantile(lat, 0.9)
	above := 0
	for _, l := range lat {
		if l > p90 {
			above++
		}
	}
	b.notes = append(b.notes,
		fmt.Sprintf("latency samples: %d, of which %d above p90", len(lat), above))
	logSum := 0.0
	for _, ls := range byQuery {
		logSum += math.Log(median(ls))
	}
	n := float64(len(qs))
	setup := make([]float64, len(b.setups))
	for i, st := range b.setups {
		setup[i] = st.total.Seconds()
	}
	return map[string]metric{
		"setup_s":            {median(setup), "s"},
		"qps":                {ratio(n, ph.wall.Seconds()), "1/s"},
		"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":     {p90, "ms"},
		"latency_geomean_ms": {math.Exp(ratio(logSum, float64(len(byQuery)))), "ms"},
		"cpu_ms_per_query":   {ratio(durMs(ph.cpu), n), "ms"},
		"peak_rss_mb":        {rssMB, "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced phase. plain is the
// untraced phase run beside it; build holds the build-pass times.
func (b *bench) perLayer(ph, plain *phase, build []time.Duration) map[string]metric {
	qs := ph.queries()
	n := float64(len(qs))
	m := map[string]metric{}
	// perQ reports a phase total per completed query.
	perQ := func(name string, v float64, unit string) { m[name] = metric{ratio(v, n), unit + "/query"} }
	const mb = 1e6

	var gen, store []float64
	for _, st := range b.setups {
		gen = append(gen, st.gen.Seconds())
		store = append(store, st.store.Seconds())
	}
	m["tpch.gen_s"] = metric{median(gen), "s"}
	m["colstore.store_s"] = metric{median(store), "s"}
	var buildSum time.Duration
	for _, d := range build {
		buildSum += d
	}
	m["tpch.build_ms"] = metric{ratio(durMs(buildSum), float64(len(build))), "ms"}

	var (
		overhead, ledger, wall, hitWall  time.Duration
		self                             [numKinds]time.Duration
		rows, execDur                    float64
		allocs, allocBytes, gcPause      float64
		spilled, written, spillRead      float64
		spillStall, prefetched           float64
		demandReads, demandNs            float64
		scanStall, scanStalls            float64
		admitWait, grant, executed, hits float64
		schemes                          = map[string]float64{}
		schemePages                      float64
	)
	for _, s := range qs {
		st := s.st
		over := s.wall - st.Duration - st.AdmissionWait
		overhead += over
		wall += s.wall
		ledger += st.AdmissionWait + over
		if st.ResultCacheHit {
			// A hit runs no plan: its Duration is the cache lookup and
			// restore, the ledger's cache term.
			hits++
			hitWall += s.wall
			ledger += st.Duration
			continue
		}
		executed++
		for k, d := range s.self {
			self[k] += d
			ledger += d
		}
		rows += float64(st.ScannedRows)
		execDur += st.Duration.Seconds()
		allocs += float64(st.AllocObjects)
		allocBytes += float64(st.AllocBytes)
		gcPause += durMs(st.GCPause)
		spilled += float64(st.SpilledBytes)
		written += float64(st.WrittenBytes)
		spillRead += float64(st.SpillReadBytes)
		spillStall += durMs(st.SpillStallTime)
		prefetched += float64(st.PrefetchedPartitions)
		demandReads += float64(st.DemandReads)
		demandNs += float64(st.DemandReadTime)
		scanStall += durMs(st.ScanStallTime)
		scanStalls += float64(st.ScanStalls)
		admitWait += durMs(st.AdmissionWait)
		grant += float64(st.MemoryGrant)
		for name, pages := range st.Schemes {
			family, _, _ := strings.Cut(name, "-")
			schemes[family] += float64(pages)
			schemePages += float64(pages)
		}
	}

	perQ("spilly.run_overhead_ms", durMs(overhead), "ms")
	for k, name := range kindNames {
		perQ("exec.self_ms."+name, durMs(self[k]), "ms")
	}
	m["exec.tuples_per_s"] = metric{ratio(rows, execDur), "1/s"}
	perQ("data.allocs_per_query", allocs, "count")
	perQ("data.alloc_mb_per_query", allocBytes/mb, "MB")
	perQ("data.gc_pause_ms", gcPause, "ms")

	perQ("core.spilled_mb", spilled/mb, "MB")
	perQ("core.spill_written_mb", written/mb, "MB")
	m["core.compression_ratio"] = metric{ratio(spilled, written), "ratio"}
	perQ("core.spill_read_mb", spillRead/mb, "MB")
	perQ("core.spill_stall_ms", spillStall, "ms")
	perQ("core.prefetched_partitions", prefetched, "count")
	perQ("core.demand_reads", demandReads, "count")
	m["core.demand_read_lat_us"] = metric{ratio(demandNs/1e3, demandReads), "us"}
	for _, family := range []string{"raw", "lz4", "snappy", "deflate", "bwt"} {
		m["codec.share."+family] = metric{ratio(schemes[family], schemePages), "ratio"}
	}

	perQ("colstore.scan_stall_ms", scanStall, "ms")
	perQ("colstore.scan_stalls", scanStalls, "count")
	m["colstore.bufcache_hit_ratio"] = metric{ratio(ph.delta("bufcache.hits"), ph.delta("bufcache.hits")+ph.delta("bufcache.misses")), "ratio"}
	var refreshes, refreshWall float64
	for _, s := range ph.samples {
		if s.q == 0 {
			refreshes++
			refreshWall += durMs(s.wall)
		}
	}
	m["colstore.refresh_ms"] = metric{ratio(refreshWall, refreshes), "ms"}

	for _, arr := range []string{"spill", "table"} {
		for _, cl := range ioClasses {
			name := "iosched." + arr + ".dispatched." + cl
			perQ(name, ph.delta(name), "count")
		}
		m["iosched."+arr+".deferred_ratio"] = metric{ratio(ph.delta("iosched."+arr+".deferred"), ph.delta("iosched."+arr+".dispatched")), "ratio"}
		perQ("nvmesim."+arr+".read_mb", ph.delta("nvmesim."+arr+".read_bytes")/mb, "MB")
		perQ("nvmesim."+arr+".write_mb", ph.delta("nvmesim."+arr+".write_bytes")/mb, "MB")
		perQ("nvmesim."+arr+".ios", ph.delta("nvmesim."+arr+".ios"), "count")
	}
	perQ("iosched.promoted", ph.delta("iosched.promoted"), "count")
	perQ("iosched.aged", ph.delta("iosched.aged"), "count")
	m["nvmesim.spill.write_amp"] = metric{ratio(ph.delta("nvmesim.spill.write_bytes"), spilled), "ratio"}

	perQ("pages.admission_wait_ms", admitWait, "ms")
	m["pages.grant_mb"] = metric{ratio(grant/mb, executed), "MB"}
	m["pages.admission_timeouts"] = metric{ph.delta("pages.timeouts"), "count"}

	m["cache.hit_ratio"] = metric{ratio(ph.delta("cache.hits"), ph.delta("cache.hits")+ph.delta("cache.misses")), "ratio"}
	m["cache.memory_hit_share"] = metric{ratio(ph.delta("cache.hits_memory"), ph.delta("cache.hits")), "ratio"}
	m["cache.hit_us"] = metric{ratio(float64(hitWall)/1e3, hits), "us"}
	perQ("cache.demotions", ph.delta("cache.demotions"), "count")
	perQ("cache.rejects", ph.delta("cache.rejects"), "count")
	perQ("cache.invalidated", ph.delta("cache.invalidated"), "count")

	m["metrics.retries"] = metric{ph.delta("metrics.retries"), "count"}
	m["metrics.failovers"] = metric{ph.delta("metrics.failovers"), "count"}

	b.notes = append(b.notes,
		fmt.Sprintf("result cache: %.0f puts, %.0f demotions, %.0f of %.0f hits from memory",
			ph.delta("cache.puts"), ph.delta("cache.demotions"), ph.delta("cache.hits_memory"), ph.delta("cache.hits")),
		fmt.Sprintf("governor: %.2f s admission wait in total over %.2f s of wall time",
			ph.delta("pages.wait_ns")/1e9, ph.wall.Seconds()))

	m["trace.ledger_coverage"] = metric{ratio(float64(ledger), float64(wall)), "ratio"}
	qps := func(p *phase) float64 { return ratio(float64(len(p.queries())), p.wall.Seconds()) }
	m["trace.overhead_ratio"] = metric{ratio(qps(ph), qps(plain)), "ratio"}
	return m
}
