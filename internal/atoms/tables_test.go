package atoms_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atoms"
	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
)

// oracle is the naive reference the flat tables are tested against: a
// predicate is the bitmap of the points of a small line it covers.
type oracle [lineSize]bool

const (
	lineBits = 7
	lineSize = 1 << lineBits
)

func (o oracle) intervals() []deltanet.Interval {
	var out []deltanet.Interval
	for x := 0; x < lineSize; x++ {
		if !o[x] {
			continue
		}
		lo := x
		for x < lineSize && o[x] {
			x++
		}
		out = append(out, deltanet.Interval{Lo: uint64(lo), Hi: uint64(x)})
	}
	return out
}

// TestTablesAgainstOracle drives long random operation sequences through
// an engine whose tables are forced tiny, so op-cache overwrites, intern
// probe chains and both resizes happen constantly, and checks every
// result against the bitmap oracle. The pool maps each oracle value to
// the one Ref it may have: ref-equality ⇔ set-equality, across GCs.
func TestTablesAgainstOracle(t *testing.T) {
	lay := hs.NewLayout(hs.Field{Name: "dst", Bits: lineBits})
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e := atoms.NewTiny(lineBits)
		refs := []bdd.Ref{bdd.False, bdd.True}
		vals := map[bdd.Ref]oracle{bdd.False: {}}
		var full oracle
		for i := range full {
			full[i] = true
		}
		vals[bdd.True] = full
		byVal := map[oracle]bdd.Ref{{}: bdd.False, full: bdd.True}

		record := func(step int, what string, r bdd.Ref, want oracle) {
			t.Helper()
			if got := e.Intervals(r); !slices.Equal(got, want.intervals()) {
				t.Fatalf("seed %d step %d %s: ref %d holds %v, oracle %v", seed, step, what, r, got, want.intervals())
			}
			if prev, ok := byVal[want]; ok && prev != r {
				t.Fatalf("seed %d step %d %s: equal sets under refs %d and %d", seed, step, what, prev, r)
			}
			if prev, ok := vals[r]; ok && prev != want {
				t.Fatalf("seed %d step %d %s: ref %d names two different sets", seed, step, what, r)
			}
			if _, ok := vals[r]; !ok {
				refs = append(refs, r)
			}
			vals[r], byVal[want] = want, r
		}
		pick := func() bdd.Ref { return refs[rng.Intn(len(refs))] }

		for step := 0; step < 6000; step++ {
			a, b := pick(), pick()
			va, vb := vals[a], vals[b]
			var want oracle
			switch op := rng.Intn(20); {
			case op < 4:
				for i := range want {
					want[i] = va[i] && vb[i]
				}
				record(step, "and", e.And(a, b), want)
			case op < 8:
				for i := range want {
					want[i] = va[i] || vb[i]
				}
				record(step, "or", e.Or(a, b), want)
			case op < 10:
				for i := range want {
					want[i] = !va[i]
				}
				record(step, "not", e.Not(a), want)
			case op < 14:
				for i := range want {
					want[i] = va[i] && !vb[i]
				}
				record(step, "diff", e.Diff(a, b), want)
			case op < 15:
				implies, overlaps := true, false
				for i := range va {
					implies = implies && (!va[i] || vb[i])
					overlaps = overlaps || (va[i] && vb[i])
				}
				if got := e.Implies(a, b); got != implies {
					t.Fatalf("seed %d step %d: Implies(%d,%d) = %v, oracle %v", seed, step, a, b, got, implies)
				}
				if got := e.Overlaps(a, b); got != overlaps {
					t.Fatalf("seed %d step %d: Overlaps(%d,%d) = %v, oracle %v", seed, step, a, b, got, overlaps)
				}
			case op < 17:
				plen := rng.Intn(lineBits + 1)
				value := uint64(rng.Intn(lineSize))
				r, err := e.Compile(lay, fib.MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: value, Len: plen}})
				if err != nil {
					t.Fatal(err)
				}
				lo := int(value) >> (lineBits - plen) << (lineBits - plen)
				for i := lo; i < lo+1<<(lineBits-plen); i++ {
					want[i] = true
				}
				record(step, "compile", r, want)
			case op < 19:
				// An unnormalized list: overlapping, adjacent and empty pieces.
				var ivs []deltanet.Interval
				for k := rng.Intn(4); k >= 0; k-- {
					lo := rng.Intn(lineSize)
					hi := min(lineSize, lo+rng.Intn(12))
					ivs = append(ivs, deltanet.Interval{Lo: uint64(lo), Hi: uint64(hi)})
					for i := lo; i < hi; i++ {
						want[i] = true
					}
				}
				record(step, "from-intervals", e.FromIntervals(ivs), want)
			default:
				// GC with a random half of the pool as roots; survivors keep
				// their sets under the remapped refs, the rest may be re-minted.
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
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d after GC: %v", seed, step, err)
				}
				newVals := make(map[bdd.Ref]oracle, len(keep))
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
					record(step, "gc survivor", r, vals[r])
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if hits, misses := e.CacheStats(); hits == 0 || misses == 0 || e.CacheEvictions() == 0 {
			t.Fatalf("seed %d: hits=%d misses=%d evictions=%d — the tiny tables were not stressed", seed, hits, misses, e.CacheEvictions())
		}
	}
}

// TestOpAllocs pins the allocation-free paths: an op-cache hit, and a
// miss whose result is already interned (reached by evicting the entry
// with a colliding key on a tiny table).
func TestOpAllocs(t *testing.T) {
	e := atoms.New(16)
	a := e.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}})
	b := e.FromIntervals([]deltanet.Interval{{Lo: 50, Hi: 250}})
	e.And(a, b)
	e.Or(a, b)
	e.Diff(a, b)
	e.Not(a)
	if n := testing.AllocsPerRun(100, func() {
		e.And(a, b)
		e.Or(a, b)
		e.Diff(a, b)
		e.Not(a)
		e.Implies(a, b)
		e.Overlaps(a, b)
	}); n != 0 {
		t.Fatalf("op-cache hits (and the yes/no queries) allocate %v times per run, want 0", n)
	}

	// Four slots at most and five distinct keys per run: at least one
	// recomputes every time, and every result is interned already.
	tiny := atoms.NewTiny(16)
	ta := tiny.FromIntervals([]deltanet.Interval{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}})
	tb := tiny.FromIntervals([]deltanet.Interval{{Lo: 50, Hi: 250}})
	run := func() {
		tiny.And(ta, tb)
		tiny.Or(ta, tb)
		tiny.Diff(ta, tb)
		tiny.Diff(tb, ta)
		tiny.Not(ta)
	}
	run()
	_, before := tiny.CacheStats()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("misses with an interned result allocate %v times per run, want 0", n)
	}
	if _, after := tiny.CacheStats(); after == before {
		t.Fatal("the tiny cache never missed; the miss path was not measured")
	}
	// Re-interning an existing set through the public constructors is
	// allocation-free too.
	ivs := []deltanet.Interval{{Lo: 200, Hi: 300}, {Lo: 0, Hi: 100}}
	if n := testing.AllocsPerRun(100, func() { e.FromIntervals(ivs) }); n != 0 {
		t.Fatalf("FromIntervals of an interned set allocates %v times, want 0", n)
	}
}

var sink bdd.Ref

// benchRefs interns n single-interval predicates and n two-interval ones.
func benchRefs(e *atoms.Engine, n int) []bdd.Ref {
	refs := make([]bdd.Ref, 0, 2*n)
	for i := 0; i < n; i++ {
		lo := uint64(i) * 16
		refs = append(refs,
			e.FromIntervals([]deltanet.Interval{{Lo: lo, Hi: lo + 16}}),
			e.FromIntervals([]deltanet.Interval{{Lo: lo, Hi: lo + 4}, {Lo: lo + 8, Hi: lo + 24}}))
	}
	return refs
}

// BenchmarkOpHit replays a small working set of operand pairs: every
// probe after the first round is an op-cache hit.
func BenchmarkOpHit(b *testing.B) {
	e := atoms.New(32)
	refs := benchRefs(e, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := refs[i%len(refs)], refs[(i*7+1)%len(refs)]
		sink = e.And(x, y)
	}
}

// BenchmarkOpMiss cycles through twice as many operand pairs as the op
// cache can ever hold, so about seven probes in eight find a colliding
// key (the rest sit alone in their slot): a miss merges into the scratch
// buffer and finds the result already interned (the warm-up lap minted
// it).
func BenchmarkOpMiss(b *testing.B) {
	e := atoms.New(32)
	refs := benchRefs(e, 1024)
	const offsets = 64 // len(refs) × offsets = 2 × maxOpSlots pairs
	pair := func(i int) (bdd.Ref, bdd.Ref) {
		x := i % len(refs)
		return refs[x], refs[(x+1+i/len(refs)%offsets)%len(refs)]
	}
	for i := 0; i < len(refs)*offsets; i++ {
		e.Or(pair(i))
	}
	_, warm := e.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = e.Or(pair(i))
	}
	b.StopTimer()
	if _, misses := e.CacheStats(); misses-warm < uint64(b.N)*3/4 {
		b.Fatalf("only %d of %d probes missed", misses-warm, b.N)
	}
}

// BenchmarkIntern re-interns existing sets: hash, probe, compare.
func BenchmarkIntern(b *testing.B) {
	e := atoms.New(32)
	sets := make([][]deltanet.Interval, 4096)
	for i := range sets {
		lo := uint64(i) * 32
		sets[i] = []deltanet.Interval{{Lo: lo, Hi: lo + 4}, {Lo: lo + 8, Hi: lo + 12}, {Lo: lo + 16, Hi: lo + 20}}
		e.FromIntervals(sets[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = e.FromIntervals(sets[i%len(sets)])
	}
}
