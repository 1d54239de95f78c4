// Package trace is the engine's per-query observability subsystem: every
// operator (scan, join, agg, sort, window, external sort) opens a Span on
// the query's Tracer and feeds it wall time, row/byte flow, spill volume,
// compression-scheme choices, and regulator level transitions. The paper's
// whole evaluation is engine introspection — the §4.4 cycles/byte currency,
// Figure 8's utilization traces, Figure 11's spill histograms — and spans
// are the per-operator refinement of those same counters.
//
// Cost model: a nil Tracer (the default) costs one pointer comparison per
// operator per query — the hot per-tuple paths never see the tracer at all.
// With tracing on, workers accumulate into plain per-worker span buffers
// and merge into the span's shared atomics every few batches and at stream
// end, so the steady-state cost is two clock reads per batch (~1024 rows).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span records one operator's execution within a query: identity (operator
// kind, an optional label such as the scanned table), tree position, wall
// time, and flow counters. All counter methods are nil-safe so operators
// can call them unconditionally after a single tracer check at Run time.
type Span struct {
	// ID is the span's index in the tracer's span list; ParentID is the
	// enclosing operator's ID, -1 for the plan root.
	ID       int
	ParentID int
	// Op is the operator kind ("scan", "join", "agg", ...); Label carries
	// operator detail (table name, join kind, group-by columns).
	Op    string
	Label string

	tracer  *Tracer
	startNs int64        // offset from tracer start
	endNs   atomic.Int64 // last observed activity, offset from tracer start

	// busyNs accumulates worker-time spent inside this operator and
	// nowhere else: stream wrappers subtract nested child-stream time and
	// blocking phases subtract every charge descendants made during the
	// phase window (see the tracer's charged counter), so busy is
	// exclusive at the source and self time is simply busy / workers.
	busyNs atomic.Int64

	rowsOut    atomic.Int64
	batchesOut atomic.Int64

	// Materialization and spill counters (operators with an Umami phase).
	tuplesStored   atomic.Int64
	spilledBytes   atomic.Int64 // raw page bytes handed to the spill path
	writtenBytes   atomic.Int64 // post-compression bytes written to the array
	spillReadBytes atomic.Int64
	spillRetries   atomic.Int64
	spillFailovers atomic.Int64
	partitioned    atomic.Bool
	spilled        atomic.Bool

	// Phase-2 overlap telemetry: worker wall time stalled inside spill
	// readback (exclusive — stall is measured at the cursor, not derived
	// from busy time) and partitions whose readback was already in flight
	// when this operator opened them.
	spillStallNs    atomic.Int64
	prefetchedParts atomic.Int64

	// Scan-side stall telemetry: worker wall time spent blocked inside a
	// table scan waiting for group reads the prefetch window had not
	// finished yet (measured at the colstore reader).
	scanStallNs atomic.Int64

	// Spill integrity telemetry (checksummed frames + parity stripes):
	// frames whose checksums verified on readback, blocks that failed
	// verification, and blocks rebuilt from their parity stripe.
	spillVerified     atomic.Int64
	spillChecksumErrs atomic.Int64
	spillReconstructs atomic.Int64

	// Self-regulating compression telemetry (§4.4): how often the
	// regulator moved along the unified scale and how far up it got.
	regLevelChanges atomic.Int64
	regMaxLevel     atomic.Int64

	schemesMu sync.Mutex
	schemes   map[string]int64 // spilled pages per compression scheme
}

// Tracer collects the spans of one query execution. Create one per traced
// query and attach it to the execution context; a nil *Tracer disables
// tracing with near-zero overhead.
type Tracer struct {
	t0      time.Time
	workers int

	// charged totals every busy charge made to any span. Blocking phases
	// snapshot it at phase start and subtract the delta from workers×wall
	// at phase end, so time already attributed to descendants (stream
	// pulls, nested build phases) is not charged twice.
	charged atomic.Int64

	mu    sync.Mutex
	spans []*Span
	stack []*Span // Run()-time parent scope stack
}

// New returns a tracer for a query running with the given worker count
// (used to normalize summed worker-time back into wall time).
func New(workers int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	return &Tracer{t0: time.Now(), workers: workers}
}

// Workers returns the worker count the tracer normalizes against.
func (t *Tracer) Workers() int {
	if t == nil {
		return 1
	}
	return t.workers
}

// Start opens a span as a child of the current scope and makes it the
// current scope. Operators call it at the top of Run and close the scope
// with EndScope once their Run body (including child Run calls) returns.
// Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(op, label string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Op: op, Label: label, tracer: t, startNs: int64(time.Since(t.t0))}
	t.mu.Lock()
	s.ID = len(t.spans)
	s.ParentID = -1
	if n := len(t.stack); n > 0 {
		s.ParentID = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// EndScope pops s off the scope stack. It does not close the span — the
// span keeps accumulating counters until its stream is drained; EndScope
// only determines parentage of spans started later.
func (t *Tracer) EndScope(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == s {
			break
		}
	}
	t.mu.Unlock()
}

// Spans returns the spans recorded so far, in creation order. The slice is
// a copy; the spans themselves are live and may still accumulate.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// touch advances the span's last-activity watermark.
func (s *Span) touch() {
	now := int64(time.Since(s.tracer.t0))
	for {
		cur := s.endNs.Load()
		if cur >= now || s.endNs.CompareAndSwap(cur, now) {
			return
		}
	}
}

// AddBusy records d of worker-time spent inside this operator, exclusive
// of time already charged to other spans (stream wrappers and blocking
// phases compute the exclusive share before calling).
func (s *Span) AddBusy(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.busyNs.Add(int64(d))
	s.tracer.charged.Add(int64(d))
	s.touch()
}

// Charged returns the total busy time charged to all spans so far. Blocking
// phases snapshot it before and after to compute their exclusive share.
func (t *Tracer) Charged() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.charged.Load())
}

// AddRows records rows and batches emitted by this operator.
func (s *Span) AddRows(rows, batches int64) {
	if s == nil {
		return
	}
	s.rowsOut.Add(rows)
	s.batchesOut.Add(batches)
}

// AddMaterialized records tuples stored through the operator's Umami phase.
func (s *Span) AddMaterialized(tuples int64) {
	if s == nil {
		return
	}
	s.tuplesStored.Add(tuples)
}

// AddSpill records spill-write volume: raw page bytes handed to the spill
// path and post-compression bytes written to the array.
func (s *Span) AddSpill(rawBytes, writtenBytes, retries, failovers int64) {
	if s == nil {
		return
	}
	s.spilledBytes.Add(rawBytes)
	s.writtenBytes.Add(writtenBytes)
	s.spillRetries.Add(retries)
	s.spillFailovers.Add(failovers)
	if rawBytes > 0 {
		s.spilled.Store(true)
	}
}

// AddSpillRead records bytes read back from the spill array (and transient
// read errors recovered by retry).
func (s *Span) AddSpillRead(bytes, retries int64) {
	if s == nil {
		return
	}
	s.spillReadBytes.Add(bytes)
	s.spillRetries.Add(retries)
}

// AddSpillStall records spill-readback stall time (worker wall time spent
// waiting inside cursor Next calls) and partitions found prefetched at open.
func (s *Span) AddSpillStall(stallNs, prefetched int64) {
	if s == nil {
		return
	}
	s.spillStallNs.Add(stallNs)
	s.prefetchedParts.Add(prefetched)
}

// AddScanStall records table-scan stall time: worker wall time spent
// blocked inside reader Next calls waiting on group reads.
func (s *Span) AddScanStall(stallNs int64) {
	if s == nil {
		return
	}
	s.scanStallNs.Add(stallNs)
}

// AddSpillIntegrity records readback integrity work: frames verified,
// blocks that failed verification, and blocks rebuilt from parity.
func (s *Span) AddSpillIntegrity(verified, checksumErrs, reconstructions int64) {
	if s == nil {
		return
	}
	s.spillVerified.Add(verified)
	s.spillChecksumErrs.Add(checksumErrs)
	s.spillReconstructs.Add(reconstructions)
}

// SetPartitioned marks that the operator enabled partitioning.
func (s *Span) SetPartitioned() {
	if s == nil {
		return
	}
	s.partitioned.Store(true)
}

// AddRegulator records self-regulating compression activity: scheme
// transitions and the highest level reached on the unified scale.
func (s *Span) AddRegulator(levelChanges int64, maxLevel int) {
	if s == nil {
		return
	}
	s.regLevelChanges.Add(levelChanges)
	for {
		cur := s.regMaxLevel.Load()
		if int64(maxLevel) <= cur || s.regMaxLevel.CompareAndSwap(cur, int64(maxLevel)) {
			break
		}
	}
}

// AddSchemes merges a spilled-pages-per-scheme histogram into the span.
func (s *Span) AddSchemes(h map[string]int64) {
	if s == nil || len(h) == 0 {
		return
	}
	s.schemesMu.Lock()
	if s.schemes == nil {
		s.schemes = make(map[string]int64, len(h))
	}
	for k, v := range h {
		s.schemes[k] += v
	}
	s.schemesMu.Unlock()
}

// SpanSnapshot is a plain-struct copy of a span's state, safe to serialize
// (the live Span holds atomics and a mutex).
type SpanSnapshot struct {
	ID       int    `json:"id"`
	ParentID int    `json:"parent"`
	Op       string `json:"op"`
	Label    string `json:"label,omitempty"`

	Start time.Duration `json:"start_ns"` // offset from query start
	End   time.Duration `json:"end_ns"`   // last observed activity
	Busy  time.Duration `json:"busy_ns"`  // summed worker-time

	RowsOut    int64 `json:"rows_out"`
	BatchesOut int64 `json:"batches_out"`

	TuplesStored   int64 `json:"tuples_stored,omitempty"`
	SpilledBytes   int64 `json:"spilled_bytes,omitempty"`
	WrittenBytes   int64 `json:"written_bytes,omitempty"`
	SpillReadBytes int64 `json:"spill_read_bytes,omitempty"`
	SpillRetries   int64 `json:"spill_retries,omitempty"`
	SpillFailovers int64 `json:"spill_failovers,omitempty"`
	Partitioned    bool  `json:"partitioned,omitempty"`
	Spilled        bool  `json:"spilled,omitempty"`

	SpillStallNs    time.Duration `json:"spill_stall_ns,omitempty"`
	PrefetchedParts int64         `json:"prefetched_partitions,omitempty"`
	ScanStallNs     time.Duration `json:"scan_stall_ns,omitempty"`

	SpillVerified     int64 `json:"spill_pages_verified,omitempty"`
	SpillChecksumErrs int64 `json:"spill_checksum_errors,omitempty"`
	SpillReconstructs int64 `json:"spill_reconstructions,omitempty"`

	RegLevelChanges int64            `json:"reg_level_changes,omitempty"`
	RegMaxLevel     int64            `json:"reg_max_level,omitempty"`
	Schemes         map[string]int64 `json:"schemes,omitempty"`
}

// Snapshot copies the span's current state.
func (s *Span) Snapshot() SpanSnapshot {
	snap := SpanSnapshot{
		ID:                s.ID,
		ParentID:          s.ParentID,
		Op:                s.Op,
		Label:             s.Label,
		Start:             time.Duration(s.startNs),
		End:               time.Duration(s.endNs.Load()),
		Busy:              time.Duration(s.busyNs.Load()),
		RowsOut:           s.rowsOut.Load(),
		BatchesOut:        s.batchesOut.Load(),
		TuplesStored:      s.tuplesStored.Load(),
		SpilledBytes:      s.spilledBytes.Load(),
		WrittenBytes:      s.writtenBytes.Load(),
		SpillReadBytes:    s.spillReadBytes.Load(),
		SpillRetries:      s.spillRetries.Load(),
		SpillFailovers:    s.spillFailovers.Load(),
		Partitioned:       s.partitioned.Load(),
		Spilled:           s.spilled.Load(),
		SpillStallNs:      time.Duration(s.spillStallNs.Load()),
		PrefetchedParts:   s.prefetchedParts.Load(),
		ScanStallNs:       time.Duration(s.scanStallNs.Load()),
		SpillVerified:     s.spillVerified.Load(),
		SpillChecksumErrs: s.spillChecksumErrs.Load(),
		SpillReconstructs: s.spillReconstructs.Load(),
		RegLevelChanges:   s.regLevelChanges.Load(),
		RegMaxLevel:       s.regMaxLevel.Load(),
	}
	s.schemesMu.Lock()
	if len(s.schemes) > 0 {
		snap.Schemes = make(map[string]int64, len(s.schemes))
		for k, v := range s.schemes {
			snap.Schemes[k] += v
		}
	}
	s.schemesMu.Unlock()
	return snap
}

// Snapshots copies every span's state, in creation order (ID order).
func (t *Tracer) Snapshots() []SpanSnapshot {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		out[i] = s.Snapshot()
	}
	return out
}
