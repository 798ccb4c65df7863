package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes. Spans of one message (or one epoch, or one driver call) share a
// trace id; Parent names the span that caused this one (0 = root).
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id"`
	Trace   string `json:"trace_id"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the run ends.
// A nil *tracer is tracing switched off: every method is a no-op, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// add records a finished span and returns its id for children to name.
func (t *tracer) add(name, trace string, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Trace: trace,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// count adds n to a named count taken at a span boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counts: t.counts})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its direct children cover.
func selfTimes(spans []span) (self map[string]int64, total map[string]int64, n map[string]int) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, total, n = map[string]int64{}, map[string]int64{}, map[string]int{}
	for _, s := range spans {
		dur := s.EndNs - s.StartNs
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += dur - covered
		total[s.Name] += dur
		n[s.Name]++
	}
	return self, total, n
}

// serverSplit is the registry's view of where a traced run's server-side
// time went, summed over the traced round.
type serverSplit struct {
	handleNs, feedNs, imtNs int64
	wireRTTNs               int64 // the wire driver's no-op Send→ack round trip, per message
	workers                 int64 // scheduler workers a storm-model block runs on
}

// printLayerTable prints the per-span self-time table and, for the root
// span of the workload ("msg", or "block" on storm-model), the split of
// its total into layers with the residual the split does not explain.
func printLayerTable(w io.Writer, spans []span, root string, split serverSplit) {
	self, total, n := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %8s %14s %14s\n", "span", "n", "total_ms", "self_ms")
	for _, name := range names {
		fmt.Fprintf(w, "%-20s %8d %14.3f %14.3f\n", name, n[name], float64(total[name])/1e6, float64(self[name])/1e6)
	}
	end := total[root]
	if end == 0 {
		return
	}
	type row struct {
		layer string
		ns    int64
	}
	var rows []row
	if root == "msg" {
		// Every row is measured on its own: spans for what the agent
		// does, the registry's handle_ns/feed_ns/imt sums for the server,
		// the wire driver's no-op round trip for the transport.
		rows = []row{
			{"connection busy with earlier messages (conn.wait)", self["conn.wait"]},
			{"generator (gen.wait)", self["gen.wait"]},
			{"wire (driver round trip x n)", split.wireRTTNs * int64(n[root])},
			{"serve (handle - feed)", split.handleNs - split.feedNs},
			{"ce2d+pred (feed - imt)", split.feedNs - split.imtNs},
			{"imt (map+reduce+apply)", split.imtNs},
			{"serve (result push)", total["ack.wait"] - self["ack.wait"]},
		}
	} else {
		// ApplyBlock fans a block out to the subspace workers, so the
		// IMT phase timers add up worker time, not wall time: the block
		// spans are scaled by the worker count before the comparison.
		end *= split.workers
		rows = []row{
			{"imt (map+reduce+apply, summed over workers)", split.imtNs},
		}
	}
	var sum int64
	fmt.Fprintf(w, "layer shares of %q (%.3f ms over %d spans", root, float64(total[root])/1e6, n[root])
	if root != "msg" {
		fmt.Fprintf(w, ", x %d workers = %.3f ms of worker time", split.workers, float64(end)/1e6)
	}
	fmt.Fprintln(w, "):")
	for _, r := range rows {
		sum += r.ns
		fmt.Fprintf(w, "  %-52s %12.3f ms %6.1f%%\n", r.layer, float64(r.ns)/1e6, 100*float64(r.ns)/float64(end))
	}
	what := "residual"
	if root != "msg" {
		what = "residual: compile, atoms, batcher, sched, barrier"
	}
	fmt.Fprintf(w, "  %-52s %12.3f ms %6.1f%%\n", what, float64(end-sum)/1e6, 100*float64(end-sum)/float64(end))
}
