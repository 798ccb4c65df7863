package atoms

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
)

var laySD = hs.NewLayout(hs.Field{Name: "src", Bits: 4}, hs.Field{Name: "dst", Bits: 4})

// TestCanonicityRefEquality pins the hash-consing contract the inverse
// model relies on: building the same set two different ways must return
// the same Ref, and distinct sets distinct Refs.
func TestCanonicityRefEquality(t *testing.T) {
	e := New(8)
	a := e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 16}, {Lo: 16, Hi: 32}})
	b := e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 32}})
	if a != b {
		t.Fatalf("adjacent intervals did not canonicalize: %d vs %d", a, b)
	}
	c := e.Or(e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 16}}),
		e.FromIntervals([]deltanet.Interval{{Lo: 16, Hi: 32}}))
	if c != a {
		t.Fatalf("Or of halves = %d, direct build = %d", c, a)
	}
	d := e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 33}})
	if d == a {
		t.Fatal("distinct sets share a Ref")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTerminals pins False=empty, True=full under the bdd.Ref aliases.
func TestTerminals(t *testing.T) {
	e := New(8)
	if got := e.FromIntervals(nil); got != bdd.False {
		t.Fatalf("empty set = %d, want False", got)
	}
	if got := e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 256}}); got != bdd.True {
		t.Fatalf("full line = %d, want True", got)
	}
	if e.Not(bdd.False) != bdd.True || e.Not(bdd.True) != bdd.False {
		t.Fatal("complement of terminals broken")
	}
	if e.SatCount(bdd.True) != 256 || e.SatCount(bdd.False) != 0 {
		t.Fatal("terminal SatCount broken")
	}
}

// TestAlgebraAgainstBDD cross-checks the whole algebra against the BDD
// engine on random prefix/range sets over an 8-bit line: for every
// operation both representations must agree pointwise on all 256
// headers, and Eval must agree with hs-style assignments.
func TestAlgebraAgainstBDD(t *testing.T) {
	const W = 8
	ae := New(W)
	s := hs.NewSpace(laySD)
	rng := rand.New(rand.NewSource(7))

	randomSet := func() (bdd.Ref, bdd.Ref) { // (atom ref, bdd ref)
		n := rng.Intn(3) + 1
		var ivs []deltanet.Interval
		br := bdd.False
		for i := 0; i < n; i++ {
			lo := uint64(rng.Intn(256))
			hi := lo + uint64(rng.Intn(40)) + 1
			if hi > 256 {
				hi = 256
			}
			ivs = append(ivs, deltanet.Interval{Lo: lo, Hi: hi})
			br = s.E.Or(br, s.LineRange(lo, hi))
		}
		return ae.FromIntervals(ivs), br
	}

	asgFor := func(x uint64) []bool {
		a := make([]bool, W)
		for i := 0; i < W; i++ {
			a[i] = x&(1<<uint(W-1-i)) != 0
		}
		return a
	}

	for trial := 0; trial < 50; trial++ {
		a1, b1 := randomSet()
		a2, b2 := randomSet()
		cases := []struct {
			name   string
			atom   bdd.Ref
			bddRef bdd.Ref
		}{
			{"and", ae.And(a1, a2), s.E.And(b1, b2)},
			{"or", ae.Or(a1, a2), s.E.Or(b1, b2)},
			{"not", ae.Not(a1), s.E.Not(b1)},
			{"diff", ae.Diff(a1, a2), s.E.Diff(b1, b2)},
		}
		for _, c := range cases {
			for x := uint64(0); x < 256; x++ {
				if ae.Eval(c.atom, asgFor(x)) != s.E.Eval(c.bddRef, asgFor(x)) {
					t.Fatalf("trial %d %s: representations disagree at point %d", trial, c.name, x)
				}
			}
		}
		if ae.Implies(a1, a2) != s.E.Implies(b1, b2) {
			t.Fatalf("trial %d: Implies disagrees", trial)
		}
		if ae.Overlaps(a1, a2) != s.E.Overlaps(b1, b2) {
			t.Fatalf("trial %d: Overlaps disagrees", trial)
		}
		if ae.SatCount(ae.And(a1, a2)) != s.E.SatCount(s.E.And(b1, b2)) {
			t.Fatalf("trial %d: SatCount disagrees", trial)
		}
		if asg := ae.AnySat(a1); asg != nil && !ae.Eval(a1, asg) {
			t.Fatalf("trial %d: AnySat returned a non-satisfying assignment", trial)
		}
	}
	if err := ae.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompile pins descriptor compilation: prefix rules become one
// interval; explosive rules surface the typed sentinel unchanged.
func TestCompile(t *testing.T) {
	e := New(8)
	r, err := e.Compile(laySD, fib.MatchDesc{{Field: "src", Kind: fib.MatchPrefix, Value: 0b0100, Len: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := e.FromIntervals([]deltanet.Interval{{Lo: 64, Hi: 128}})
	if r != want {
		t.Fatalf("compiled prefix = ref %d, want %d", r, want)
	}

	layWide := hs.NewLayout(hs.Field{Name: "a", Bits: 24}, hs.Field{Name: "b", Bits: 8})
	ew := New(32)
	_, err = ew.Compile(layWide, fib.MatchDesc{{Field: "b", Kind: fib.MatchPrefix, Value: 0x80, Len: 1}})
	if !errors.Is(err, deltanet.ErrIntervalExplosion) {
		t.Fatalf("explosive compile error = %v, want ErrIntervalExplosion", err)
	}
}

// TestGC pins the remap contract: survivors stay canonical and live
// Refs translate, dead Refs panic on Apply, terminals are pinned.
func TestGC(t *testing.T) {
	e := New(8)
	keep := e.FromIntervals([]deltanet.Interval{{Lo: 10, Hi: 20}})
	drop := e.FromIntervals([]deltanet.Interval{{Lo: 30, Hi: 40}})
	keep2 := e.FromIntervals([]deltanet.Interval{{Lo: 50, Hi: 60}})

	remap, st := e.GC(func(yield func(bdd.Ref)) {
		yield(keep)
		yield(keep2)
	})
	if st.Reclaimed != 1 {
		t.Fatalf("reclaimed %d sets, want 1", st.Reclaimed)
	}
	if !remap.Live(keep) || !remap.Live(keep2) || remap.Live(drop) {
		t.Fatal("liveness wrong after GC")
	}
	nk := remap.Apply(keep)
	if got := e.Intervals(nk); len(got) != 1 || got[0] != (deltanet.Interval{Lo: 10, Hi: 20}) {
		t.Fatalf("survivor intervals = %v", got)
	}
	if remap.Apply(bdd.True) != bdd.True || remap.Apply(bdd.False) != bdd.False {
		t.Fatal("terminals moved")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-interning the dropped set must mint a fresh, working Ref.
	re := e.FromIntervals([]deltanet.Interval{{Lo: 30, Hi: 40}})
	if e.SatCount(re) != 10 {
		t.Fatal("re-interned set broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Remap.Apply on a swept atom ref must panic")
		}
	}()
	remap.Apply(drop)
}
