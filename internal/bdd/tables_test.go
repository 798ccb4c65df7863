package bdd_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bdd"
)

// table is the naive reference the flat tables are tested against: a
// predicate is the truth table of its function over a small universe,
// one bit per assignment (bit x of the table is the value at the
// assignment that gives variable i the value x>>i&1).
type table [points / 64]uint64

const (
	nvars  = 10
	points = 1 << nvars
)

func (t table) at(x int) bool { return t[x/64]>>(x%64)&1 == 1 }

func (t *table) set(x int) { t[x/64] |= 1 << (x % 64) }

// tableOf builds a truth table pointwise.
func tableOf(f func(x int) bool) table {
	var t table
	for x := 0; x < points; x++ {
		if f(x) {
			t.set(x)
		}
	}
	return t
}

func assignment(x int) []bool {
	a := make([]bool, nvars)
	for i := range a {
		a[i] = x>>i&1 == 1
	}
	return a
}

// randVars draws a strictly increasing variable subset.
func randVars(rng *rand.Rand) []int {
	var vars []int
	for v := 0; v < nvars; v++ {
		if rng.Intn(3) == 0 {
			vars = append(vars, v)
		}
	}
	return vars
}

// TestTablesAgainstOracle drives long random operation sequences through
// an engine whose tables are forced tiny, so probe wrap-around, unique
// table doubling, cache doubling and cache overwrites happen constantly,
// and checks every result against the truth-table oracle. The pool maps
// each oracle value to the one Ref it may have: ref-equality ⇔
// function-equality, across growth and GCs; the structural invariants
// are re-proved after every growth and every GC.
func TestTablesAgainstOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e := bdd.NewTiny(nvars)
		full := tableOf(func(int) bool { return true })
		refs := []bdd.Ref{bdd.False, bdd.True}
		vals := map[bdd.Ref]table{bdd.False: {}, bdd.True: full}
		byVal := map[table]bdd.Ref{{}: bdd.False, full: bdd.True}
		uniq, cache := e.TableSizes()
		growths, gcs := 0, 0

		record := func(step int, what string, r bdd.Ref, want table) {
			t.Helper()
			if prev, ok := byVal[want]; ok && prev != r {
				t.Fatalf("seed %d step %d %s: equal functions under refs %d and %d", seed, step, what, prev, r)
			}
			if prev, ok := vals[r]; ok && prev != want {
				t.Fatalf("seed %d step %d %s: ref %d names two different functions", seed, step, what, r)
			}
			if _, ok := vals[r]; !ok {
				// A ref the pool has not seen: prove it pointwise once.
				for x := 0; x < points; x++ {
					if e.Eval(r, assignment(x)) != want.at(x) {
						t.Fatalf("seed %d step %d %s: ref %d wrong at assignment %#b", seed, step, what, r, x)
					}
				}
				refs = append(refs, r)
			}
			vals[r], byVal[want] = want, r
		}
		pick := func() bdd.Ref { return refs[rng.Intn(len(refs))] }

		for step := 0; step < 4000; step++ {
			a, b := pick(), pick()
			va, vb := vals[a], vals[b]
			switch op := rng.Intn(24); {
			case op < 4:
				record(step, "and", e.And(a, b), tableOf(func(x int) bool { return va.at(x) && vb.at(x) }))
			case op < 8:
				record(step, "or", e.Or(a, b), tableOf(func(x int) bool { return va.at(x) || vb.at(x) }))
			case op < 10:
				record(step, "not", e.Not(a), tableOf(func(x int) bool { return !va.at(x) }))
			case op < 13:
				record(step, "diff", e.Diff(a, b), tableOf(func(x int) bool { return va.at(x) && !vb.at(x) }))
			case op < 15:
				record(step, "xor", e.Xor(a, b), tableOf(func(x int) bool { return va.at(x) != vb.at(x) }))
			case op < 17:
				implies, overlaps := true, false
				for x := 0; x < points; x++ {
					implies = implies && (!va.at(x) || vb.at(x))
					overlaps = overlaps || (va.at(x) && vb.at(x))
				}
				if got := e.Implies(a, b); got != implies {
					t.Fatalf("seed %d step %d: Implies(%d,%d) = %v, oracle %v", seed, step, a, b, got, implies)
				}
				if got := e.Overlaps(a, b); got != overlaps {
					t.Fatalf("seed %d step %d: Overlaps(%d,%d) = %v, oracle %v", seed, step, a, b, got, overlaps)
				}
			case op < 20:
				vars, bits := randVars(rng), rng.Uint64()
				record(step, "cube", e.Cube(vars, bits), tableOf(func(x int) bool {
					for i, v := range vars {
						if x>>v&1 != int(bits>>i&1) {
							return false
						}
					}
					return true
				}))
			case op < 23:
				vars := randVars(rng)
				mask := 0
				for _, v := range vars {
					mask |= 1 << v
				}
				// ∃vars.a holds at x iff a holds somewhere x's class modulo
				// the quantified bits reaches.
				var reach [points]bool
				for x := 0; x < points; x++ {
					reach[x&^mask] = reach[x&^mask] || va.at(x)
				}
				record(step, "exists", e.Exists(a, vars), tableOf(func(x int) bool { return reach[x&^mask] }))
			default:
				// GC with a random half of the pool as roots; survivors keep
				// their functions under the remapped refs, the rest may be
				// re-minted by later operations.
				keep := map[bdd.Ref]bool{bdd.False: true, bdd.True: true}
				for _, r := range refs {
					if rng.Intn(2) == 0 {
						keep[r] = true
					}
				}
				remap, _ := e.GC(func(yield func(bdd.Ref)) {
					for r := range keep {
						yield(r)
					}
				})
				gcs++
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d after GC: %v", seed, step, err)
				}
				newVals := make(map[bdd.Ref]table, len(keep))
				refs = refs[:0]
				clear(byVal)
				for r := range keep {
					nr := remap.Apply(r)
					newVals[nr], byVal[vals[r]] = vals[r], nr
					refs = append(refs, nr)
				}
				slices.Sort(refs) // map order must not steer the seeded sequence
				vals = newVals
				for _, r := range refs {
					for x := 0; x < points; x += 7 {
						if e.Eval(r, assignment(x)) != vals[r].at(x) {
							t.Fatalf("seed %d step %d: GC survivor %d wrong at assignment %#b", seed, step, r, x)
						}
					}
				}
				uniq, cache = e.TableSizes()
			}
			if u, c := e.TableSizes(); u != uniq || c != cache {
				uniq, cache = u, c
				growths++
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d after growing to %d/%d slots: %v", seed, step, u, c, err)
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hits, misses := e.CacheStats()
		if hits == 0 || misses == 0 || e.CacheEvictions() == 0 || growths < 4 || gcs < 2 {
			t.Fatalf("seed %d: hits=%d misses=%d evictions=%d growths=%d gcs=%d — the tiny tables were not stressed",
				seed, hits, misses, e.CacheEvictions(), growths, gcs)
		}
	}
}

// fibPrefixes returns n random prefix cubes over a 32-variable engine
// (lengths 8..32), the shape of a FIB's match predicates.
func fibPrefixes(e *bdd.Engine, rng *rand.Rand, n int) []bdd.Ref {
	out := make([]bdd.Ref, n)
	for i := range out {
		vars := make([]int, 8+rng.Intn(25))
		for v := range vars {
			vars[v] = v
		}
		out[i] = e.Cube(vars, rng.Uint64())
	}
	return out
}

// TestExportRestoreIdenticalRefs replays an engine's node dump into a
// fresh engine — after growth and a GC, so the dump is not in creation
// order — and requires the very same Refs for the same functions, then
// that a dump with one triple duplicated is rejected by the table
// lookup.
func TestExportRestoreIdenticalRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := bdd.NewTiny(32)
	prefixes := fibPrefixes(e, rng, 200)
	roots := prefixes[:100]
	remap, _ := e.GC(func(yield func(bdd.Ref)) {
		for _, r := range roots {
			yield(r)
		}
	})
	for i, r := range roots {
		roots[i] = remap.Apply(r)
	}
	union := bdd.False
	for _, r := range roots {
		union = e.Or(union, r)
	}
	dump := e.ExportNodes()
	re, err := bdd.NewFromNodes(32, dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("restored engine: %v", err)
	}
	if !slices.Equal(re.ExportNodes(), dump) {
		t.Fatal("restored engine exports a different node sequence")
	}
	reUnion := bdd.False
	for _, r := range roots {
		reUnion = re.Or(reUnion, r)
	}
	if reUnion != union {
		t.Fatalf("same fold over the same refs: restored engine gives %d, donor %d", reUnion, union)
	}
	if re.NumNodes() != e.NumNodes() {
		t.Fatalf("restored engine minted nodes for functions the dump already holds: %d vs %d", re.NumNodes(), e.NumNodes())
	}

	// Duplicate a triple from the middle; its children precede it, so
	// only the hash-consing check can catch it.
	mid := len(dump) / 3 / 2 * 3
	hostile := append(slices.Clone(dump), dump[mid:mid+3]...)
	if _, err := bdd.NewFromNodes(32, hostile); err == nil {
		t.Fatal("NewFromNodes accepted a dump holding one triple twice")
	}
}

// TestGCOpsGC interleaves collections with operations on a tiny engine:
// the tables GC rebuilds must keep interning canonically, and a second
// GC must work from them.
func TestGCOpsGC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := bdd.NewTiny(32)
	held := fibPrefixes(e, rng, 64)
	fold := func() bdd.Ref {
		r := bdd.False
		for _, p := range held {
			r = e.Or(r, p)
		}
		return r
	}
	want := e.SatCount(fold())
	for round := 0; round < 3; round++ {
		fibPrefixes(e, rng, 64) // garbage
		remap, st := e.GC(func(yield func(bdd.Ref)) {
			for _, r := range held {
				yield(r)
			}
		})
		if st.Reclaimed == 0 {
			t.Fatalf("round %d: GC reclaimed nothing", round)
		}
		for i, r := range held {
			held[i] = remap.Apply(r)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d after GC: %v", round, err)
		}
		u := fold()
		if got := e.SatCount(u); got != want {
			t.Fatalf("round %d: union covers %v assignments, want %v", round, got, want)
		}
		if again := fold(); again != u {
			t.Fatalf("round %d: the same fold gave refs %d then %d", round, u, again)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d after ops: %v", round, err)
		}
	}
}

// TestOpAllocs pins the allocation-free paths: a computed-cache hit, and
// misses that recompute through the unique table without growing it —
// reached on a tiny engine, whose eight cache slots cannot hold one
// 32-level recursion, once every node the operations build exists.
func TestOpAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := bdd.New(32)
	p := fibPrefixes(e, rng, 2)
	e.And(p[0], e.Not(p[1]))
	if n := testing.AllocsPerRun(100, func() { e.And(p[0], e.Not(p[1])) }); n != 0 {
		t.Fatalf("computed-cache hits allocate %v times per And, want 0", n)
	}

	tiny := bdd.NewTiny(32)
	q := fibPrefixes(tiny, rng, 8)
	run := func() {
		for i := range q {
			tiny.Or(q[i], tiny.Not(q[(i+1)%len(q)]))
		}
	}
	run()
	_, before := tiny.CacheStats()
	nodes := tiny.NumNodes()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("cache misses with no table growth allocate %v times per run, want 0", n)
	}
	if _, after := tiny.CacheStats(); after == before {
		t.Fatal("the tiny cache never missed; the miss path was not measured")
	}
	if tiny.NumNodes() != nodes {
		t.Fatalf("recomputation minted nodes: %d → %d", nodes, tiny.NumNodes())
	}
}

var sink bdd.Ref

// BenchmarkITEHit is one And answered by the computed cache's first
// probe.
func BenchmarkITEHit(b *testing.B) {
	e := bdd.New(32)
	p := fibPrefixes(e, rand.New(rand.NewSource(1)), 2)
	a, c := e.Not(p[0]), e.Not(p[1])
	e.And(a, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = e.And(a, c)
	}
}

// BenchmarkITEMiss is FIB churn: a running union that random prefixes
// are inserted into and withdrawn from, so the accumulator — and with
// it every ITE key along the prefix's path — is new on each operation.
// A collection outside the timer every 2^14 operations keeps the node
// count at a few hundred thousand.
func BenchmarkITEMiss(b *testing.B) {
	e := bdd.New(32)
	rng := rand.New(rand.NewSource(1))
	prefixes := fibPrefixes(e, rng, 1024)
	in := make([]bool, len(prefixes))
	acc := bdd.False
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(prefixes))
		if in[j] {
			acc = e.Diff(acc, prefixes[j])
		} else {
			acc = e.Or(acc, prefixes[j])
		}
		in[j] = !in[j]
		if i&(1<<14-1) == 1<<14-1 {
			b.StopTimer()
			remap, _ := e.GC(func(yield func(bdd.Ref)) {
				yield(acc)
				for _, p := range prefixes {
					yield(p)
				}
			})
			acc = remap.Apply(acc)
			for k, p := range prefixes {
				prefixes[k] = remap.Apply(p)
			}
			b.StartTimer()
		}
	}
	sink = acc
}

// BenchmarkMk is one unique-table lookup of an existing node, over 2^16
// nodes visited in a scattered order.
func BenchmarkMk(b *testing.B) {
	const n = 1 << 16
	e := bdd.New(32)
	rng := rand.New(rand.NewSource(1))
	type triple struct {
		level  int32
		lo, hi bdd.Ref
	}
	keys := make([]triple, n)
	for i := range keys {
		// mk does not look at the children, so any distinct pair will do.
		keys[i] = triple{int32(rng.Intn(32)), bdd.Ref(rng.Intn(n)), bdd.Ref(n + rng.Intn(n))}
		e.Mk(keys[i].level, keys[i].lo, keys[i].hi)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(n-1)]
		sink = e.Mk(k.level, k.lo, k.hi)
	}
}
