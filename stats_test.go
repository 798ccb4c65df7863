package flash

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fib"
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
