package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer of the engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`   // load, generate, store, build, run, refresh
	Op     int64  `json:"op"`     // closed-loop op sequence number (0 = set-up or build pass)
	Query  int    `json:"query"`  // TPC-H query number (0 = none)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, op int64, q int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Query: q, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as a JSON array in dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+name+".json")
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
