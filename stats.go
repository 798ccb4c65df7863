package flash

import (
	"time"

	"repro/internal/ce2d"
	"repro/internal/imt"
)

// This file is the consolidated statistics surface: StatsSnapshot is the
// one structure operators read (the /v1/stats endpoint serves it as
// JSON), and the historical per-facet getters survive as thin deprecated
// wrappers over it.

// SchedulerStats reports work-stealing scheduler activity (tasks run,
// home tokens stolen, Wait barriers) plus the effective worker count.
type SchedulerStats struct {
	Tasks      uint64 `json:"tasks"`
	Steals     uint64 `json:"steals"`
	Dispatches uint64 `json:"dispatches"`
	Workers    int    `json:"workers"`
}

// CacheStats aggregates the per-engine memo-cache counters: the ITE
// computed cache on BDD subspaces, the op cache on atom subspaces.
// Both are direct-mapped and lossy; Evictions (the bdd_cache_evictions
// metric) counts entries overwritten by a colliding key.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// GCStats aggregates in-engine garbage-collection activity across
// subspace engines.
type GCStats struct {
	Runs           uint64 `json:"runs"`            // completed mark-and-sweep passes
	ReclaimedNodes uint64 `json:"reclaimed_nodes"` // nodes swept across all passes
}

// TransformStats is the Fast IMT cost breakdown summed across subspace
// workers (and, for a System, across live per-epoch verifiers).
type TransformStats struct {
	MapTime    time.Duration `json:"map_ns"`
	ReduceTime time.Duration `json:"reduce_ns"`
	ApplyTime  time.Duration `json:"apply_ns"`
	Blocks     int           `json:"blocks"`
	Updates    int           `json:"updates"`
	Atomic     int           `json:"atomic"`
	Aggregated int           `json:"aggregated"`
}

// Total returns the summed pipeline time (Map + Reduce + Apply).
func (t TransformStats) Total() time.Duration {
	return t.MapTime + t.ReduceTime + t.ApplyTime
}

// add folds one transformer's cost breakdown into the total.
func (t *TransformStats) add(s imt.Stats) {
	t.MapTime += s.MapTime
	t.ReduceTime += s.ReduceTime
	t.ApplyTime += s.ApplyTime
	t.Blocks += s.Blocks
	t.Updates += s.Updates
	t.Atomic += s.Atomic
	t.Aggregated += s.Aggregated
}

// StatsSnapshot is a coherent point-in-time view of a ModelBuilder's or
// System's internals: one call, one pass over the workers, every facet
// the old getter sprawl (SchedulerStats, CacheStats, GCStats, Stats,
// PredicateOps, MemoryProxy, ECs) exposed piecemeal — plus the serving
// plane's own gauges (live snapshots, verdict subscribers).
type StatsSnapshot struct {
	// Subspaces is the number of parallel subspace workers.
	Subspaces int `json:"subspaces"`
	// Scheduler counts work-stealing scheduler activity.
	Scheduler SchedulerStats `json:"scheduler"`
	// Cache sums the memo-cache counters across engines, including
	// engines retired by a cutover or Compact.
	Cache CacheStats `json:"cache"`
	// GC sums in-engine mark-and-sweep activity.
	GC GCStats `json:"gc"`
	// Transform is the Fast IMT cost breakdown (Table 3's time columns).
	Transform TransformStats `json:"transform"`
	// PredicateOps counts BDD operations (Table 3's "# Predicate
	// Operations").
	PredicateOps uint64 `json:"predicate_ops"`
	// ECs is the total equivalence-class count. For a System it sums
	// every live per-epoch verifier's model.
	ECs int `json:"ecs"`
	// MemoryNodes is live BDD nodes plus PAT nodes — the structural
	// memory footprint proxy of §5.5.
	MemoryNodes int `json:"memory_nodes"`
	// Poisoned lists quarantined subspace indices (System only; nil for
	// a ModelBuilder).
	Poisoned []int `json:"poisoned,omitempty"`
	// Snapshots is the number of live (unreleased) model snapshots
	// (System only).
	Snapshots int `json:"snapshots"`
	// Subscribers is the number of active verdict subscriptions (System
	// only).
	Subscribers int `json:"subscribers"`
}

// addEngine folds one worker's engine counters and live node count into
// the snapshot. Engines are single-owner and their counters plain words:
// callers read them (subspace.countersLocked) under the worker's mutex,
// which also makes each worker's hits, misses and ops one coherent
// sample.
func (out *StatsSnapshot) addEngine(c engineCounterBase, nodes int) {
	out.Cache.Hits += c.cacheHits
	out.Cache.Misses += c.cacheMisses
	out.Cache.Evictions += c.cacheEvictions
	out.GC.Runs += c.gcRuns
	out.GC.ReclaimedNodes += c.gcReclaimed
	out.PredicateOps += c.ops
	out.MemoryNodes += nodes
}

// StatsSnapshot takes a coherent snapshot of the builder's counters in a
// single pass, flushing pending batched updates first so every facet
// reflects the same applied-block history.
func (b *ModelBuilder) StatsSnapshot() StatsSnapshot {
	b.Flush() //nolint:errcheck // flush errors resurface on the next ApplyBlock/Flush
	var out StatsSnapshot
	out.Subspaces = len(b.workers)
	st := b.pool.Stats()
	out.Scheduler = SchedulerStats{Tasks: st.Tasks, Steals: st.Steals, Dispatches: st.Dispatches, Workers: b.pool.Workers()}
	for _, w := range b.workers {
		w.mu.Lock()
		out.Transform.add(w.transform.Stats())
		out.ECs += w.transform.Model().Len()
		out.MemoryNodes += w.transform.Store.NumNodes()
		out.addEngine(w.countersLocked(), w.eng.NumNodes())
		w.mu.Unlock()
	}
	return out
}

// StatsSnapshot takes a coherent snapshot of the system's counters in a
// single pass. Model-derived facets (Transform, ECs, PAT nodes) sum over
// every live per-epoch verifier in every subspace.
func (s *System) StatsSnapshot() StatsSnapshot {
	var out StatsSnapshot
	out.Subspaces = len(s.workers)
	st := s.pool.Stats()
	out.Scheduler = SchedulerStats{Tasks: st.Tasks, Steals: st.Steals, Dispatches: st.Dispatches, Workers: s.pool.Workers()}
	for _, w := range s.workers {
		w.mu.Lock()
		w.disp.EachVerifier(func(_ ce2d.Epoch, v *ce2d.Verifier) {
			tr := v.Transformer()
			out.Transform.add(tr.Stats())
			out.ECs += tr.Model().Len()
			out.MemoryNodes += tr.Store.NumNodes()
		})
		out.addEngine(w.countersLocked(), w.eng.NumNodes())
		w.mu.Unlock()
	}
	out.Poisoned = s.PoisonedSubspaces()
	out.Snapshots = int(s.snapCount.Load())
	out.Subscribers = s.bus.subscribers()
	return out
}

// ---- Deprecated per-facet getters (thin wrappers over StatsSnapshot) ----

// SchedulerStats returns the builder's scheduler counters.
//
// Deprecated: use StatsSnapshot().Scheduler.
func (b *ModelBuilder) SchedulerStats() SchedulerStats { return b.StatsSnapshot().Scheduler }

// CacheStats sums the ITE computed-cache counters across subspace
// engines.
//
// Deprecated: use StatsSnapshot().Cache.
func (b *ModelBuilder) CacheStats() CacheStats { return b.StatsSnapshot().Cache }

// GCStats sums GC activity across the builder's workers, including
// engines since rotated away by Compact.
//
// Deprecated: use StatsSnapshot().GC.
func (b *ModelBuilder) GCStats() GCStats { return b.StatsSnapshot().GC }

// ECs reports the total number of equivalence classes across subspaces.
//
// Deprecated: use StatsSnapshot().ECs.
func (b *ModelBuilder) ECs() int { return b.StatsSnapshot().ECs }

// Stats merges the Fast IMT cost breakdown across subspace workers,
// flushing pending batches first.
//
// Deprecated: use StatsSnapshot().Transform.
func (b *ModelBuilder) Stats() imt.Stats {
	t := b.StatsSnapshot().Transform
	return imt.Stats{
		MapTime: t.MapTime, ReduceTime: t.ReduceTime, ApplyTime: t.ApplyTime,
		Blocks: t.Blocks, Updates: t.Updates, Atomic: t.Atomic, Aggregated: t.Aggregated,
	}
}

// PredicateOps sums the BDD predicate-operation counters across workers
// (the "# Predicate Operations" of Table 3).
//
// Deprecated: use StatsSnapshot().PredicateOps.
func (b *ModelBuilder) PredicateOps() uint64 { return b.StatsSnapshot().PredicateOps }

// MemoryProxy reports live BDD nodes plus PAT nodes across workers, the
// structural memory footprint of the model.
//
// Deprecated: use StatsSnapshot().MemoryNodes.
func (b *ModelBuilder) MemoryProxy() int { return b.StatsSnapshot().MemoryNodes }

// SchedulerStats returns the system's work-stealing scheduler counters.
//
// Deprecated: use StatsSnapshot().Scheduler.
func (s *System) SchedulerStats() SchedulerStats { return s.StatsSnapshot().Scheduler }

// CacheStats sums the ITE computed-cache counters across the subspace
// engines (shared by all of a subspace's per-epoch verifiers).
//
// Deprecated: use StatsSnapshot().Cache.
func (s *System) CacheStats() CacheStats { return s.StatsSnapshot().Cache }

// GCStats sums in-engine garbage-collection activity across the
// subspace engines.
//
// Deprecated: use StatsSnapshot().GC.
func (s *System) GCStats() GCStats { return s.StatsSnapshot().GC }
