package bdd

import (
	"math/rand"
	"strings"
	"testing"
)

// legacyPackedKey is the unique-table key computation this package
// first shipped with: level<<48 | lo<<24 | hi. It is kept here only to
// pin down the collision class the table must never reintroduce.
func legacyPackedKey(level int32, lo, hi Ref) uint64 {
	return uint64(level)<<48 | uint64(uint32(lo))<<24 | uint64(uint32(hi))
}

// TestUniqueKeyNoCollisionBeyond24Bits pins the unique table at child
// Refs ≥ 2^24. Under the legacy packing each pair below collapsed to one
// key (lo bled into the level bits, hi into the lo bits), so mk would
// have returned an unrelated node. The table stores no keys — a probe
// compares against the node itself — so the pair must stay two nodes
// even when both sit in one probe sequence: the first triple fills every
// slot of a four-slot table but the one just before the second triple's
// home, so the second lookup walks past the first node on every step.
// (find never dereferences children, so no 2^24-node engine is needed.)
func TestUniqueKeyNoCollisionBeyond24Bits(t *testing.T) {
	const big = Ref(1 << 24)
	pairs := []struct {
		name           string
		aLevel, bLevel int32
		aLo, aHi       Ref
		bLo, bHi       Ref
	}{
		{"lo bleeds into level", 0, 1, big, 0, 0, 0},
		{"hi bleeds into lo", 0, 0, 0, big, 1, 0},
		{"both children bleed", 5, 5, big + 3, big + 7, 3, 7},
	}
	for _, p := range pairs {
		if legacyPackedKey(p.aLevel, p.aLo, p.aHi) != legacyPackedKey(p.bLevel, p.bLo, p.bHi) {
			t.Errorf("%s: fixture stale — pair no longer collides under the legacy packing", p.name)
		}
		e := newSized(8, 4, 2)
		ra := Ref(len(e.nodes))
		e.nodes = append(e.nodes, node{level: p.aLevel, lo: p.aLo, hi: p.aHi})
		home := hashNode(p.bLevel, p.bLo, p.bHi) & 3
		for i := range e.unique {
			if uint64(i) != (home+3)&3 {
				e.unique[i] = ra
			}
		}
		got, slot := e.find(p.bLevel, p.bLo, p.bHi)
		if got != 0 {
			t.Fatalf("%s: find(%d,%d,%d) = %d after probing past node (%d,%d,%d); distinct nodes share a unique-table entry",
				p.name, p.bLevel, p.bLo, p.bHi, got, p.aLevel, p.aLo, p.aHi)
		}
		if slot != (home+3)&3 {
			t.Fatalf("%s: probe stopped at slot %d, want the one empty slot %d", p.name, slot, (home+3)&3)
		}
	}
}

// gcFixture builds an engine with a set of kept predicates and a pile
// of garbage ones, returning the kept refs.
func gcFixture(t *testing.T, nvars int) (*Engine, []Ref) {
	t.Helper()
	e := New(nvars)
	rng := rand.New(rand.NewSource(0x9c))
	randPred := func() Ref {
		r := True
		for j := 0; j < 6; j++ {
			v := e.Var(rng.Intn(nvars))
			if rng.Intn(2) == 0 {
				v = e.Not(v)
			}
			if rng.Intn(2) == 0 {
				r = e.And(r, v)
			} else {
				r = e.Or(r, v)
			}
		}
		return r
	}
	var kept []Ref
	for i := 0; i < 8; i++ {
		kept = append(kept, randPred())
	}
	for i := 0; i < 200; i++ {
		randPred() // garbage: never referenced again
	}
	return e, kept
}

func sliceRoots(refs []Ref) func(yield func(Ref)) {
	return func(yield func(Ref)) {
		for _, r := range refs {
			yield(r)
		}
	}
}

func TestGCPreservesSemanticsAndCanonicity(t *testing.T) {
	const nvars = 12
	e, kept := gcFixture(t, nvars)

	// Record ground truth before collection: full truth tables are
	// cheap at 12 variables.
	truth := make([][]bool, len(kept))
	counts := make([]float64, len(kept))
	for i, r := range kept {
		counts[i] = e.SatCount(r)
		for a := 0; a < 1<<nvars; a++ {
			truth[i] = append(truth[i], e.Eval(r, bitsToAssignment(a, nvars)))
		}
	}

	before := e.NumNodes()
	remap, st := e.GC(sliceRoots(kept))
	if st.Before != before || st.After != e.NumNodes() || st.Reclaimed != before-e.NumNodes() {
		t.Fatalf("stats %+v inconsistent with node counts before=%d after=%d", st, before, e.NumNodes())
	}
	if st.Reclaimed <= 0 {
		t.Fatalf("no garbage reclaimed (before=%d after=%d); fixture broken", st.Before, st.After)
	}
	if e.GCRuns() != 1 || e.ReclaimedNodes() != uint64(st.Reclaimed) {
		t.Fatalf("counters runs=%d reclaimed=%d, want 1, %d", e.GCRuns(), e.ReclaimedNodes(), st.Reclaimed)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-GC invariants: %v", err)
	}

	for i := range kept {
		kept[i] = remap.Apply(kept[i])
	}
	for i, r := range kept {
		if got := e.SatCount(r); got != counts[i] {
			t.Fatalf("kept[%d]: SatCount %v after GC, want %v", i, got, counts[i])
		}
		for a := 0; a < 1<<nvars; a++ {
			if e.Eval(r, bitsToAssignment(a, nvars)) != truth[i][a] {
				t.Fatalf("kept[%d]: Eval diverges at assignment %#x after GC", i, a)
			}
		}
	}

	// Hash-consing canonicity must survive the collection: recomputing
	// a kept predicate from scratch must land on the identical Ref.
	if r := e.And(kept[0], kept[1]); r != e.And(kept[0], kept[1]) {
		t.Fatal("post-GC hash consing broken: identical conjunction minted two Refs")
	}

	// A second collection over the surviving roots reclaims at most the
	// nodes minted by the checks above and is the identity on kept refs.
	remap2, st2 := e.GC(sliceRoots(kept))
	if st2.Reclaimed < 0 {
		t.Fatalf("second GC stats %+v", st2)
	}
	for i, r := range kept {
		if nr := remap2.Apply(r); nr < 0 || int(nr) >= e.NumNodes() {
			t.Fatalf("kept[%d] remapped out of range: %d", i, nr)
		}
	}
}

func bitsToAssignment(bits, nvars int) []bool {
	a := make([]bool, nvars)
	for i := 0; i < nvars; i++ {
		a[i] = bits&(1<<i) != 0
	}
	return a
}

func TestGCRemapApplyPanicsOnSweptRef(t *testing.T) {
	e := New(8)
	garbage := e.And(e.Var(0), e.Var(1))
	kept := e.Or(e.Var(2), e.Var(3))
	remap, _ := e.GC(sliceRoots([]Ref{kept}))
	if remap.Live(garbage) {
		t.Fatalf("garbage ref %d still live after GC", garbage)
	}
	if !remap.Live(kept) {
		t.Fatalf("kept root %d swept", kept)
	}
	mustPanic(t, "swept node", func() { remap.Apply(garbage) })
	mustPanic(t, "outside the pre-GC node range", func() { remap.Apply(Ref(len(remap) + 5)) })
}

func TestGCRootOutOfRangePanics(t *testing.T) {
	e := New(4)
	mustPanic(t, "outside the node range", func() {
		e.GC(sliceRoots([]Ref{Ref(9999)}))
	})
}

func TestGCKeepsTerminalsWithEmptyRoots(t *testing.T) {
	e := New(4)
	e.And(e.Var(0), e.Var(1))
	remap, st := e.GC(func(func(Ref)) {})
	if st.After != 2 || e.NumNodes() != 2 {
		t.Fatalf("After=%d NumNodes=%d, want 2 (terminals only)", st.After, e.NumNodes())
	}
	if remap.Apply(False) != False || remap.Apply(True) != True {
		t.Fatal("terminals must map to themselves")
	}
	// The engine is still usable after a full sweep.
	if r := e.And(e.Var(0), e.Var(1)); r == False || r == True {
		t.Fatalf("post-sweep And returned terminal %d", r)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCubeTooManyVarsPanics(t *testing.T) {
	e := New(100)
	vars := make([]int, 65)
	for i := range vars {
		vars[i] = i
	}
	mustPanic(t, "exceeds the 64-bit polarity mask", func() { e.Cube(vars, 0) })
	// 64 variables is the documented maximum and must keep working.
	if r := e.Cube(vars[:64], 0xdeadbeef); r == False {
		t.Fatal("64-var cube must be satisfiable")
	}
}

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}
