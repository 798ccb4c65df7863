package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	e := New(4)
	if e.And(True, True) != True {
		t.Error("True ∧ True != True")
	}
	if e.And(True, False) != False {
		t.Error("True ∧ False != False")
	}
	if e.Or(False, False) != False {
		t.Error("False ∨ False != False")
	}
	if e.Or(False, True) != True {
		t.Error("False ∨ True != True")
	}
	if e.Not(True) != False || e.Not(False) != True {
		t.Error("negation of terminals wrong")
	}
}

func TestVarBasics(t *testing.T) {
	e := New(3)
	x := e.Var(0)
	if e.And(x, e.Not(x)) != False {
		t.Error("x ∧ ¬x != False")
	}
	if e.Or(x, e.Not(x)) != True {
		t.Error("x ∨ ¬x != True")
	}
	if e.NVar(0) != e.Not(x) {
		t.Error("NVar(0) != Not(Var(0))")
	}
	// Canonicity: same expression built two ways yields same Ref.
	y := e.Var(1)
	a := e.And(x, y)
	b := e.And(y, x)
	if a != b {
		t.Error("And is not canonical/commutative at the Ref level")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	e := New(2)
	for _, f := range []func(){
		func() { e.Var(-1) },
		func() { e.Var(2) },
		func() { e.NVar(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range variable")
				}
			}()
			f()
		}()
	}
}

func TestNewPanicsOnBadVarCount(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			New(n)
		}()
	}
}

// buildRandom constructs a random predicate over e's variables and a
// reference truth table evaluator function.
func buildRandom(e *Engine, rng *rand.Rand, depth int) Ref {
	if depth == 0 || rng.Intn(4) == 0 {
		v := rng.Intn(e.NumVars())
		if rng.Intn(2) == 0 {
			return e.Var(v)
		}
		return e.NVar(v)
	}
	a := buildRandom(e, rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return e.Not(a)
	case 1:
		return e.And(a, buildRandom(e, rng, depth-1))
	default:
		return e.Or(a, buildRandom(e, rng, depth-1))
	}
}

func allAssignments(nvars int) [][]bool {
	out := make([][]bool, 0, 1<<uint(nvars))
	for m := 0; m < 1<<uint(nvars); m++ {
		a := make([]bool, nvars)
		for i := 0; i < nvars; i++ {
			a[i] = m&(1<<uint(i)) != 0
		}
		out = append(out, a)
	}
	return out
}

func TestAlgebraPropertiesQuick(t *testing.T) {
	const nvars = 5
	e := New(nvars)
	asg := allAssignments(nvars)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := buildRandom(e, rng, 4)
		b := buildRandom(e, rng, 4)
		c := buildRandom(e, rng, 4)
		// De Morgan
		if e.Not(e.And(a, b)) != e.Or(e.Not(a), e.Not(b)) {
			return false
		}
		// Involution
		if e.Not(e.Not(a)) != a {
			return false
		}
		// Absorption
		if e.Or(a, e.And(a, b)) != a {
			return false
		}
		// Distribution
		if e.And(a, e.Or(b, c)) != e.Or(e.And(a, b), e.And(a, c)) {
			return false
		}
		// Diff definition
		if e.Diff(a, b) != e.And(a, e.Not(b)) {
			return false
		}
		// Xor via truth table on a few assignments
		x := e.Xor(a, b)
		for _, as := range asg {
			if e.Eval(x, as) != (e.Eval(a, as) != e.Eval(b, as)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvalMatchesSemantics(t *testing.T) {
	const nvars = 6
	e := New(nvars)
	rng := rand.New(rand.NewSource(42))
	asg := allAssignments(nvars)
	for trial := 0; trial < 40; trial++ {
		// Build the predicate and an equivalent closure in lockstep.
		var build func(depth int) (Ref, func([]bool) bool)
		build = func(depth int) (Ref, func([]bool) bool) {
			if depth == 0 || rng.Intn(4) == 0 {
				v := rng.Intn(nvars)
				if rng.Intn(2) == 0 {
					return e.Var(v), func(a []bool) bool { return a[v] }
				}
				return e.NVar(v), func(a []bool) bool { return !a[v] }
			}
			ra, fa := build(depth - 1)
			switch rng.Intn(3) {
			case 0:
				return e.Not(ra), func(a []bool) bool { return !fa(a) }
			case 1:
				rb, fb := build(depth - 1)
				return e.And(ra, rb), func(a []bool) bool { return fa(a) && fb(a) }
			default:
				rb, fb := build(depth - 1)
				return e.Or(ra, rb), func(a []bool) bool { return fa(a) || fb(a) }
			}
		}
		r, f := build(4)
		for _, a := range asg {
			if e.Eval(r, a) != f(a) {
				t.Fatalf("trial %d: Eval disagrees with semantics on %v", trial, a)
			}
		}
	}
}

func TestSatCount(t *testing.T) {
	e := New(4)
	if n := e.SatCount(True); n != 16 {
		t.Errorf("SatCount(True) = %v, want 16", n)
	}
	if n := e.SatCount(False); n != 0 {
		t.Errorf("SatCount(False) = %v, want 0", n)
	}
	x := e.Var(0)
	if n := e.SatCount(x); n != 8 {
		t.Errorf("SatCount(x0) = %v, want 8", n)
	}
	xy := e.And(x, e.Var(3))
	if n := e.SatCount(xy); n != 4 {
		t.Errorf("SatCount(x0∧x3) = %v, want 4", n)
	}
}

func TestSatCountMatchesEnumeration(t *testing.T) {
	const nvars = 6
	e := New(nvars)
	rng := rand.New(rand.NewSource(7))
	asg := allAssignments(nvars)
	for trial := 0; trial < 30; trial++ {
		r := buildRandom(e, rng, 5)
		want := 0
		for _, a := range asg {
			if e.Eval(r, a) {
				want++
			}
		}
		if got := e.SatCount(r); got != float64(want) {
			t.Fatalf("trial %d: SatCount = %v, want %d", trial, got, want)
		}
	}
}

func TestAnySat(t *testing.T) {
	e := New(5)
	if e.AnySat(False) != nil {
		t.Error("AnySat(False) should be nil")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		r := buildRandom(e, rng, 5)
		a := e.AnySat(r)
		if r == False {
			if a != nil {
				t.Fatal("AnySat of empty predicate returned assignment")
			}
			continue
		}
		if a == nil || !e.Eval(r, a) {
			t.Fatalf("AnySat returned non-satisfying assignment %v", a)
		}
	}
}

func TestCube(t *testing.T) {
	e := New(8)
	// x1=1, x3=0, x5=1
	c := e.Cube([]int{1, 3, 5}, 0b101)
	want := e.AndN(e.Var(1), e.NVar(3), e.Var(5))
	if c != want {
		t.Errorf("Cube mismatch: got %d want %d", c, want)
	}
	if e.Cube(nil, 0) != True {
		t.Error("empty cube should be True")
	}
}

func TestCubePanicsOnUnsortedVars(t *testing.T) {
	e := New(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unsorted cube vars")
		}
	}()
	e.Cube([]int{2, 1}, 0)
}

func TestImpliesAndOverlaps(t *testing.T) {
	e := New(4)
	x, y := e.Var(0), e.Var(1)
	xy := e.And(x, y)
	if !e.Implies(xy, x) {
		t.Error("x∧y should imply x")
	}
	if e.Implies(x, xy) {
		t.Error("x should not imply x∧y")
	}
	if !e.Overlaps(x, y) {
		t.Error("x and y overlap")
	}
	if e.Overlaps(x, e.Not(x)) {
		t.Error("x and ¬x must not overlap")
	}
}

func TestOpsCounter(t *testing.T) {
	e := New(4)
	e.ResetOps()
	x, y := e.Var(0), e.Var(1)
	e.And(x, y) // 1
	e.Or(x, y)  // 1
	e.Not(x)    // 1
	e.Diff(x, y)
	// Diff counts 2 per doc comment.
	if got := e.Ops(); got != 5 {
		t.Errorf("Ops = %d, want 5", got)
	}
	e.ResetOps()
	if e.Ops() != 0 {
		t.Error("ResetOps did not zero the counter")
	}
}

func TestCanonicityUnderRandomEquivalences(t *testing.T) {
	// If two predicates are semantically equal, their Refs must be equal.
	const nvars = 5
	e := New(nvars)
	rng := rand.New(rand.NewSource(11))
	asg := allAssignments(nvars)
	refs := make(map[string]Ref)
	for trial := 0; trial < 120; trial++ {
		r := buildRandom(e, rng, 5)
		key := make([]byte, len(asg))
		for i, a := range asg {
			if e.Eval(r, a) {
				key[i] = 1
			}
		}
		k := string(key)
		if prev, ok := refs[k]; ok && prev != r {
			t.Fatalf("two semantically equal predicates have different Refs: %d vs %d", prev, r)
		}
		refs[k] = r
	}
}

func BenchmarkAnd(b *testing.B) {
	e := New(32)
	rng := rand.New(rand.NewSource(1))
	preds := make([]Ref, 64)
	for i := range preds {
		preds[i] = buildRandom(e, rng, 6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.And(preds[i%64], preds[(i+17)%64])
	}
}

func TestExists(t *testing.T) {
	e := New(4)
	x0, x1, x2 := e.Var(0), e.Var(1), e.Var(2)
	// ∃x1. (x0 ∧ x1) = x0
	if got := e.Exists(e.And(x0, x1), []int{1}); got != x0 {
		t.Errorf("∃x1.(x0∧x1) = %d, want x0", got)
	}
	// ∃x0. (x0 ∧ ¬x0) = False
	if got := e.Exists(e.And(x0, e.Not(x0)), []int{0}); got != False {
		t.Error("∃ of contradiction should be False")
	}
	// ∃x0,x1. (x0 ∧ x1 ∧ x2) = x2
	if got := e.Exists(e.AndN(x0, x1, x2), []int{0, 1}); got != x2 {
		t.Error("multi-var Exists wrong")
	}
	// No vars: identity.
	if e.Exists(x0, nil) != x0 {
		t.Error("Exists with no vars should be identity")
	}
	// Terminal inputs.
	if e.Exists(True, []int{0}) != True || e.Exists(False, []int{0}) != False {
		t.Error("Exists on terminals wrong")
	}
}

func TestExistsMatchesEnumeration(t *testing.T) {
	const nvars = 6
	e := New(nvars)
	rng := rand.New(rand.NewSource(13))
	asg := allAssignments(nvars)
	for trial := 0; trial < 60; trial++ {
		r := buildRandom(e, rng, 5)
		// Random strictly increasing var subset.
		var vars []int
		for v := 0; v < nvars; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		q := e.Exists(r, vars)
		for _, a := range asg {
			// Reference semantics: any setting of vars satisfies r.
			want := false
			n := len(vars)
			for m := 0; m < 1<<uint(n) && !want; m++ {
				b := append([]bool(nil), a...)
				for i, v := range vars {
					b[v] = m&(1<<uint(i)) != 0
				}
				want = want || e.Eval(r, b)
			}
			if got := e.Eval(q, a); got != want {
				t.Fatalf("trial %d: Exists disagrees at %v (vars %v)", trial, a, vars)
			}
		}
	}
}

func TestExistsPanics(t *testing.T) {
	e := New(4)
	for name, f := range map[string]func(){
		"out of range": func() { e.Exists(True, []int{9}) },
		"unsorted":     func() { e.Exists(True, []int{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
