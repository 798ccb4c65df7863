package flash

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fib"
	"repro/internal/obs"
)

// TestStatsSnapshotRacesFeed samples StatsSnapshot in a loop beside a
// running feed, on a System and on a ModelBuilder in both predicate
// modes. The engines are single-owner — no locks, plain counters — so
// every counter read must happen under the worker's mutex; before the
// reads moved inside StatsSnapshot's critical section this failed under
// -race (make pred-race runs it there). It also holds the snapshot to
// what a coherent sample guarantees: counters never run backwards.
func TestStatsSnapshotRacesFeed(t *testing.T) {
	sample := func(t *testing.T, snapshot func() StatsSnapshot, feed func()) {
		t.Helper()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last StatsSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := snapshot()
				if st.PredicateOps < last.PredicateOps || st.Cache.Hits < last.Cache.Hits || st.Cache.Misses < last.Cache.Misses {
					t.Errorf("counters ran backwards: %+v then %+v", last, st)
					return
				}
				last = st
			}
		}()
		func() {
			defer wg.Wait()
			defer close(stop)
			feed()
		}()
		if st := snapshot(); st.PredicateOps == 0 {
			t.Error("the feed performed no predicate operations; nothing was raced")
		}
	}

	t.Run("system", func(t *testing.T) {
		sys := reachSys(t, WithSubspaces(2, "dst"))
		sample(t, sys.StatsSnapshot, func() {
			for e := 1; e <= 40; e++ {
				action := Forward(2)
				if e%2 == 0 {
					action = Drop
				}
				feedLine(t, sys, fmt.Sprintf("e%d", e), action)
			}
		})
	})
	for _, mode := range []PredicateMode{PredicateBDD, PredicateHybrid} {
		t.Run("builder-"+mode.String(), func(t *testing.T) {
			b := NewModelBuilder(WithTopo(lineTopo()), WithLayout(dst8),
				WithSubspaces(2, "dst"), WithPredicateMode(mode), WithMemoryBudget(64))
			sample(t, b.StatsSnapshot, func() {
				for i := 0; i < 400; i++ {
					u := Update{Op: fib.Insert, Rule: Rule{ID: int64(i), Pri: int32(i % 7), Action: Forward(DeviceID(1 + i%3)),
						Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: uint64(i*37) & 0xff, Len: 1 + i%8}}}}
					if err := b.ApplyBlock([]DeviceBlock{{Device: DeviceID(i % 4), Updates: []Update{u}}}); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}

// TestCountersMonotoneAcrossCutover: a hybrid cutover retires the atom
// engine, and its history must survive in the counters — StatsSnapshot's
// predicate operations, cache hits, misses and evictions and GC totals,
// and every subspace's counter-like bdd_* gauges — whether a rule atoms
// cannot hold fires the cutover (System and ModelBuilder) or a
// checkpoint capture does (System). make pred-race runs it.
func TestCountersMonotoneAcrossCutover(t *testing.T) {
	prefixes := make([]Update, 20)
	for i := range prefixes {
		prefixes[i] = Update{Op: fib.Insert, Rule: Rule{ID: int64(i + 1), Pri: int32(i % 8), Action: Forward(DeviceID(1 + i%3)),
			Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: uint64(i*37) & 0xff, Len: 1 + i%8}}}}
	}
	ternary := []Update{{Op: fib.Insert, Rule: Rule{ID: 100, Pri: 9, Action: Drop,
		Desc: MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 1}}}}}
	names := []string{"ops", "cache hits", "cache misses", "cache evictions", "GC runs", "GC reclaimed nodes"}
	gauges := []string{"bdd_ops", "bdd_cache_hits", "bdd_cache_misses", "bdd_cache_evictions", "bdd_gc_runs", "bdd_gc_reclaimed_nodes"}
	// sample reads the snapshot counters, then each subspace's gauges
	// under layer/subspace<i>, labelled in the same order.
	sample := func(st StatsSnapshot, reg *obs.Registry, layer string) (labels []string, vals []uint64) {
		labels = append(labels, names...)
		vals = append(vals, st.PredicateOps, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.GC.Runs, st.GC.ReclaimedNodes)
		snap := reg.Snapshot()
		for i := 0; i < st.Subspaces; i++ {
			sub := "subspace" + strconv.Itoa(i)
			for _, g := range gauges {
				v, ok := snap.Get(layer, sub, g)
				if !ok {
					t.Fatalf("no %s/%s/%s gauge", layer, sub, g)
				}
				labels = append(labels, layer+"/"+sub+"/"+g)
				vals = append(vals, uint64(v))
			}
		}
		return labels, vals
	}
	// across samples the counters, fires the cutover and samples again.
	across := func(t *testing.T, modes func() []string, snapshot func() StatsSnapshot, reg *obs.Registry, layer string, cutover func()) {
		t.Helper()
		if m := modes(); fmt.Sprint(m) != "[atoms atoms]" {
			t.Fatalf("modes before the cutover = %v, want both on atoms", m)
		}
		before := snapshot()
		if before.PredicateOps == 0 || before.Cache.Misses == 0 || before.GC.Runs == 0 {
			t.Fatalf("the atom engines saw too little to test (%+v)", before)
		}
		labels, was := sample(before, reg, layer)
		cutover()
		if m := modes(); fmt.Sprint(m) != "[bdd bdd]" {
			t.Fatalf("modes after the cutover = %v, want both on BDD", m)
		}
		_, now := sample(snapshot(), reg, layer)
		for i := range was {
			if now[i] < was[i] {
				t.Errorf("%s dropped across the cutover: %d -> %d", labels[i], was[i], now[i])
			}
		}
	}

	newSys := func(t *testing.T, reg *obs.Registry) *System {
		t.Helper()
		sys, err := NewSystem(WithTopo(lineTopo()), WithLayout(dst8), WithSubspaces(2, ""),
			WithPredicateMode(PredicateHybrid), WithMetrics(reg),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.FeedContext(context.Background(), Msg{Device: 0, Epoch: "e1", Updates: prefixes}); err != nil {
			t.Fatal(err)
		}
		sys.GC()
		return sys
	}
	t.Run("system-feed", func(t *testing.T) {
		reg := obs.NewRegistry("t")
		sys := newSys(t, reg)
		across(t, sys.PredicateModes, sys.StatsSnapshot, reg, "ce2d", func() {
			if _, err := sys.FeedContext(context.Background(), Msg{Device: 1, Epoch: "e1", Updates: ternary}); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("system-checkpoint", func(t *testing.T) {
		reg := obs.NewRegistry("t")
		sys := newSys(t, reg)
		across(t, sys.PredicateModes, sys.StatsSnapshot, reg, "ce2d", func() {
			if _, err := sys.Checkpoint(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("builder-apply", func(t *testing.T) {
		reg := obs.NewRegistry("t")
		b := NewModelBuilder(WithTopo(lineTopo()), WithLayout(dst8), WithSubspaces(2, ""),
			WithPredicateMode(PredicateHybrid), WithMetrics(reg))
		if err := b.ApplyBlock([]DeviceBlock{{Device: 0, Updates: prefixes}}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.GC(); err != nil {
			t.Fatal(err)
		}
		across(t, b.PredicateModes, b.StatsSnapshot, reg, "imt", func() {
			if err := b.ApplyBlock([]DeviceBlock{{Device: 0, Updates: ternary}}); err != nil {
				t.Fatal(err)
			}
		})
	})
}
