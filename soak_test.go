package flash

// Soak tier (`make soak`): sustained skewed churn driven through a
// small memory budget. The assertions are the memory-management
// contract: live node counts stay bounded (a sawtooth, never the
// monotone growth of an unbounded engine), reclamation never changes
// the model (probe fingerprints byte-identical to a GC-disabled run),
// counters stay monotone across Compact rotations, and GC keeps working
// while a sibling subspace is quarantined.

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/fib"
	"repro/internal/topo"
	"repro/internal/workload"
)

const (
	soakChurn  = 1500 // prefix-mutating churn operations after the insert storm
	soakSeed   = 0x50a4
	soakBudget = 1500 // per-worker live-node watermark for the bounded run
)

// soakWorkload builds a garbage-heavy sequence: the APSP insert storm
// followed by churn that *mutates prefixes* on re-insert. SkewedChurn
// re-inserts identical predicates (hash-consing makes those free); the
// soak tier instead replaces a deleted rule's prefix with a fresh random
// one, so an engine that never reclaims accumulates the dead predicates
// of every churned-out rule.
func soakWorkload() (*workload.Workload, []workload.DevUpdate) {
	w := workload.TraceAPSP("soak", topo.Internet2())
	seq := w.InsertSequence()
	width := w.Layout.FieldBits("dst")
	type live struct {
		dev  fib.DeviceID
		rule fib.Rule
	}
	var pool []live
	for _, du := range seq {
		pool = append(pool, live{du.Dev, du.Update.Rule})
	}
	rng := rand.New(rand.NewSource(soakSeed))
	nextID := int64(1 << 40)
	for n := 0; n < soakChurn; n++ {
		i := rng.Intn(len(pool))
		l := pool[i]
		seq = append(seq, workload.DevUpdate{Dev: l.dev, Update: fib.Update{Op: fib.Delete, Rule: l.rule}})
		nr := l.rule
		nr.ID = nextID
		nextID++
		plen := 6 + rng.Intn(width-5)
		nr.Desc = fib.MatchDesc{{Field: "dst", Kind: fib.MatchPrefix,
			Value: uint64(rng.Intn(1<<uint(plen))) << uint(width-plen), Len: plen}}
		seq = append(seq, workload.DevUpdate{Dev: l.dev, Update: fib.Update{Op: fib.Insert, Rule: nr}})
		pool[i].rule = nr
	}
	return w, seq
}

// soakBlocks converts one workload chunk into builder blocks.
func soakBlocks(batch []fib.Block) []DeviceBlock {
	blocks := make([]DeviceBlock, 0, len(batch))
	for _, fb := range batch {
		db := DeviceBlock{Device: fb.Device}
		for _, u := range fb.Updates {
			db.Updates = append(db.Updates, Update{Op: u.Op,
				Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
		}
		blocks = append(blocks, db)
	}
	return blocks
}

// TestSoakMemoryBudgetBounded: under sustained churn a budgeted builder
// must keep every worker's live node count inside budget + one-cycle
// slack while producing a model byte-identical to the unbounded run.
func TestSoakMemoryBudgetBounded(t *testing.T) {
	w, seq := soakWorkload()
	devices := w.Topo.N()
	probes := diffProbes(w, soakSeed*31, 96)

	run := func(budget int) (*ModelBuilder, []int) {
		b := NewModelBuilder(
			WithTopo(w.Topo),
			WithLayout(w.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithWorkers(2),
			WithBatch(8),
			WithMemoryBudget(budget),
		)
		peak := make([]int, b.NumSubspaces())
		for _, batch := range workload.Chunk(seq, 32) {
			if err := b.ApplyBlock(soakBlocks(batch)); err != nil {
				t.Fatal(err)
			}
			for i, n := range workerNodeCounts(b.workers) {
				if n > peak[i] {
					peak[i] = n
				}
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return b, peak
	}

	unbounded, upeak := run(0)
	bounded, bpeak := run(soakBudget)
	t.Logf("peak nodes: unbounded=%v bounded=%v", upeak, bpeak)

	// The fixture must be heavy enough that an unbounded engine blows
	// well past the bound asserted below, or the assertion is vacuous.
	maxUnbounded := 0
	for _, n := range upeak {
		if n > maxUnbounded {
			maxUnbounded = n
		}
	}
	if maxUnbounded <= 2*soakBudget {
		t.Fatalf("fixture too small: unbounded peak %d never exceeds budget %d + slack", maxUnbounded, soakBudget)
	}

	// Bounded run: sawtooth. The watermark is checked after every
	// applied block, so the observable per-block peak may overshoot by
	// at most the growth of one block (one GC cycle of slack); budget
	// again is a generous bound for that.
	for i, n := range bpeak {
		if n > 2*soakBudget {
			t.Errorf("subspace %d: peak %d nodes exceeds budget %d + slack %d", i, n, soakBudget, soakBudget)
		}
	}
	if st := bounded.StatsSnapshot().GC; st.Runs == 0 || st.ReclaimedNodes == 0 {
		t.Fatalf("bounded run never collected (stats %+v)", st)
	}

	// Reclamation must not change the model: probe-level fingerprints
	// byte-identical to the GC-disabled run.
	actionAt := func(b *ModelBuilder) func(fib.DeviceID, uint64) fib.Action {
		return func(dev fib.DeviceID, x uint64) fib.Action {
			a, err := b.ActionAt(dev, []uint64{x})
			if err != nil {
				return fib.None
			}
			return a
		}
	}
	fpU := diffFingerprint(devices, probes, actionAt(unbounded))
	fpB := diffFingerprint(devices, probes, actionAt(bounded))
	if fpU != fpB {
		t.Fatalf("budgeted model fingerprint %#x diverges from unbounded %#x", fpB, fpU)
	}
}

// TestSoakCompactCountersMonotone: PredicateOps, CacheStats and GCStats
// must never move backwards across a Compact rotation (the per-worker
// base absorbs the discarded engine's history).
func TestSoakCompactCountersMonotone(t *testing.T) {
	w, seq := soakWorkload()
	b := NewModelBuilder(
		WithTopo(w.Topo),
		WithLayout(w.Layout),
		WithSubspaces(diffSubspaces, ""),
	)
	for _, batch := range workload.Chunk(seq, 64) {
		if err := b.ApplyBlock(soakBlocks(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.GC(); err != nil { // seed GC history so its counters cross the rotation too
		t.Fatal(err)
	}

	st1 := b.StatsSnapshot()
	ops1, cs1, gc1 := st1.PredicateOps, st1.Cache, st1.GC
	if ops1 == 0 || cs1.Misses == 0 {
		t.Fatalf("fixture produced no engine activity (ops=%d misses=%d)", ops1, cs1.Misses)
	}
	if gc1.Runs == 0 {
		t.Fatal("explicit GC did not count a run")
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	st2 := b.StatsSnapshot()
	ops2, cs2, gc2 := st2.PredicateOps, st2.Cache, st2.GC
	if ops2 < ops1 {
		t.Errorf("PredicateOps dropped across Compact: %d -> %d", ops1, ops2)
	}
	if cs2.Hits < cs1.Hits || cs2.Misses < cs1.Misses || cs2.Evictions < cs1.Evictions {
		t.Errorf("CacheStats dropped across Compact: %+v -> %+v", cs1, cs2)
	}
	if gc2.Runs < gc1.Runs || gc2.ReclaimedNodes < gc1.ReclaimedNodes {
		t.Errorf("GCStats dropped across Compact: %+v -> %+v", gc1, gc2)
	}

	// Counters keep climbing on the rotated engines.
	if _, err := b.ActionAt(0, []uint64{0x1234}); err != nil {
		t.Fatal(err)
	}
	if ops3 := b.StatsSnapshot().PredicateOps; ops3 < ops2 {
		t.Errorf("PredicateOps dropped after post-Compact work: %d -> %d", ops2, ops3)
	}
}

// TestChaosGCUnderPoisoning: automatic GC keeps running on healthy
// subspaces while another subspace is quarantined mid-stream — no
// deadlock, no corruption, and the poisoned worker stays poisoned.
func TestChaosGCUnderPoisoning(t *testing.T) {
	_, seq := soakWorkload()
	epochs := diffStream(t, seq, 24)
	sys, err := NewSystem(
		WithTopo(topo.Internet2()),
		WithLayout(soakLayout()),
		WithSubspaces(diffSubspaces, ""),
		WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
		WithMemoryBudget(soakBudget),
	)
	if err != nil {
		t.Fatal(err)
	}
	var poison atomic.Bool
	sys.SetFeedHook(func(subspace int, _ Msg) {
		if poison.Load() && subspace == 1 {
			panic("soak: injected panic in subspace 1")
		}
	})

	half := len(epochs) / 2
	feed := func(from, to int) int {
		results := 0
		for _, msgs := range epochs[from:to] {
			for _, m := range msgs {
				rs, err := sys.FeedContext(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if r.Subspace == 1 && poison.Load() {
						t.Fatalf("result from quarantined subspace: %+v", r)
					}
					results++
				}
			}
		}
		return results
	}
	feed(0, half)
	poison.Store(true)
	feed(half, len(epochs))

	if got := sys.PoisonedSubspaces(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("poisoned = %v, want [1]", got)
	}
	if st := sys.StatsSnapshot().GC; st.Runs == 0 {
		t.Fatalf("no GC under poisoning (stats %+v)", st)
	}
	// Healthy subspaces kept collecting: their live node counts must not
	// have grown unboundedly past the watermark.
	for i, n := range workerNodeCounts(sys.workers) {
		if i == 1 {
			continue // quarantined mid-stream; its engine is frozen as-is
		}
		if n > 2*soakBudget {
			t.Errorf("healthy subspace %d ended at %d nodes (budget %d)", i, n, soakBudget)
		}
	}
}

func soakLayout() *Layout {
	w, _ := soakWorkload()
	return w.Layout
}
