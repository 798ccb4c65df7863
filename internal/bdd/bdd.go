// Package bdd implements a reduced ordered binary decision diagram (ROBDD)
// engine used as the predicate representation for header spaces.
//
// The paper's reference implementation uses the JDD library; Go has no
// mature BDD library, so this package provides one from scratch, laid out
// the way JDD is: an array node table and hashed, lossy operation caches.
// Because nodes are hash-consed, two predicates are logically equivalent
// if and only if their Refs are equal, which the inverse-model code
// relies on for O(1) predicate comparison (Reduce II in the paper
// aggregates overwrites by predicate).
//
// The engine counts "predicate operations" exactly as §3.3 of the paper
// defines them: one conjunction (∧), disjunction (∨) or negation (¬)
// invocation counts as one operation regardless of internal node visits.
// This makes the "# Predicate Operations" column of Table 3 reproducible.
//
// # Tables
//
// Nodes live in one []node indexed by Ref. The unique table is an
// open-addressed, linearly probed []Ref of node indices — four bytes a
// slot and no stored keys: a probe hashes (level, lo, hi) and compares
// against the node a slot names. It is kept at load ≤ 1/2 and rebuilt
// from the node array when it doubles, after GC and on restore. The ITE
// computed cache is a direct-mapped []{f, g, h, r}: one probe, and a
// colliding key overwrites. One rule sizes both: the unique table is the
// smallest power of two (256 at least) that keeps the load ≤ 1/2, and
// the cache has as many slots as the unique table, up to maxCacheSlots —
// so they double together as nodes are created, and shrink together when
// GC rebuilds them.
//
// A lossy cache is sound because nodes are hash-consed and Refs are
// stable between GCs: an entry can only say "ITE of these three nodes is
// that node", so losing one costs a recomputation that finds the very
// same nodes. GC moves Refs, so it zeroes the cache — the only
// invalidation there is.
//
// # Ownership
//
// An Engine is single-owner: it holds no locks and its counters are
// plain words, so all methods require the owner's exclusion, which Flash
// provides with the subspace worker's mutex (w.mu).
package bdd

import (
	"fmt"
	"math/bits"
)

// Ref is a reference to a BDD node. The terminals are the constants False
// and True; all other Refs index into the owning Engine's node store.
// The zero value is False, so zero-valued predicates are valid ("empty
// header space").
type Ref int32

// Terminal nodes. They are identical for every Engine.
const (
	False Ref = 0
	True  Ref = 1
)

// node is an internal decision node: if variable level is 0 take lo, else hi.
type node struct {
	level int32 // variable index; smaller level = closer to the root
	lo    Ref
	hi    Ref
}

// iteSlot is one memoized ITE application; f == False marks an empty
// slot (ite answers a terminal f before it probes).
type iteSlot struct {
	f, g, h, r Ref
}

// Table sizes, in slots (powers of two). 2^18 cache slots is 4 MB per
// engine at most; engines are per subspace worker, so cache memory
// scales with the subspace count, not the workload.
const (
	minSlots      = 1 << 8
	maxCacheSlots = 1 << 18
	maxSlots      = 1 << 31 // unique table bound: Refs are int32
)

// Engine owns a universe of BDD nodes over a fixed number of Boolean
// variables. Variable i is tested before variable j whenever i < j.
type Engine struct {
	nvars    int
	nodes    []node    // Ref → node; slots 0 and 1 are the terminals
	unique   []Ref     // open-addressed unique table of node indices; 0 = empty
	cache    []iteSlot // direct-mapped lossy ITE computed cache
	cacheCap int       // cache slot cap (maxCacheSlots outside tests)

	ops uint64 // user-level predicate operations (∧, ∨, ¬)

	cacheHits      uint64 // ITE computed-cache hits
	cacheMisses    uint64 // ITE computed-cache misses (recursive computations)
	cacheEvictions uint64 // cache entries overwritten by a colliding key
	gcRuns         uint64 // completed GC passes
	gcReclaimed    uint64 // nodes swept across all GC passes
}

// New returns an Engine over nvars Boolean variables. nvars must be
// positive and at most 32767 so that levels fit the node encoding.
func New(nvars int) *Engine {
	if nvars <= 0 || nvars > 1<<15-1 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", nvars))
	}
	return newSized(nvars, minSlots, maxCacheSlots)
}

// newSized is New with an explicit initial unique-table size and cache
// cap (powers of two); tests shrink them so every probe wrap-around,
// doubling and overwrite runs within a few operations, restore presizes
// the tables for the dump it replays.
func newSized(nvars, slots, cacheCap int) *Engine {
	e := &Engine{
		nvars:    nvars,
		nodes:    make([]node, 2, slots/2+1),
		unique:   make([]Ref, slots),
		cache:    make([]iteSlot, min(slots, cacheCap)),
		cacheCap: cacheCap,
	}
	// Terminals sit at a sentinel level below all variables so cofactor
	// logic never descends into them.
	e.nodes[False] = node{level: int32(nvars), lo: False, hi: False}
	e.nodes[True] = node{level: int32(nvars), lo: True, hi: True}
	return e
}

// slotsFor returns the unique-table size that holds n nodes at load
// ≤ 1/2.
func slotsFor(n int) int {
	slots := minSlots
	for slots < 2*n {
		slots *= 2
	}
	return slots
}

// mix folds the 128-bit product of its operands into 64 bits (the
// wyhash/mum primitive); the low bits of the result are mixed well
// enough to index a power-of-two table directly.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashNode hashes a decision node for the unique table; hashITE an ITE
// key for the computed cache. Callers mask the result to the table size.
func hashNode(level int32, lo, hi Ref) uint64 {
	return mix((uint64(uint32(lo))<<32|uint64(uint32(hi)))^0xa0761d6478bd642f, uint64(uint32(level))^0xe7037ed1a0b428db)
}

func hashITE(f, g, h Ref) uint64 {
	return mix((uint64(uint32(f))<<32|uint64(uint32(g)))^0x8ebc6af09c88c6e3, uint64(uint32(h))^0x589965cc75374cc3)
}

// NumVars reports the number of Boolean variables in the engine's universe.
func (e *Engine) NumVars() int { return e.nvars }

// NumNodes reports the number of live decision nodes, including terminals.
// It is the engine's memory-footprint proxy used by the benchmarks.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Ops reports the cumulative number of user-level predicate operations
// (conjunction, disjunction, negation) performed so far, as counted in
// §3.3 of the paper.
func (e *Engine) Ops() uint64 { return e.ops }

// ResetOps zeroes the predicate-operation counter.
func (e *Engine) ResetOps() { e.ops = 0 }

// CacheStats reports the ITE computed-cache hit and miss totals since
// the engine was created.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.cacheHits, e.cacheMisses
}

// CacheEvictions reports computed-cache entries overwritten by a
// colliding key (the cache is direct-mapped and lossy; GC's wholesale
// zeroing is not counted).
func (e *Engine) CacheEvictions() uint64 { return e.cacheEvictions }

// find probes the unique table for the node (level, lo, hi): its Ref if
// interned, else 0 and the empty slot where it belongs.
func (e *Engine) find(level int32, lo, hi Ref) (Ref, uint64) {
	mask := uint64(len(e.unique) - 1)
	i := hashNode(level, lo, hi) & mask
	for {
		r := e.unique[i]
		if r == 0 {
			return 0, i
		}
		if nd := &e.nodes[r]; nd.level == level && nd.lo == lo && nd.hi == hi {
			return r, i
		}
		i = (i + 1) & mask
	}
}

// mk returns the canonical node (level, lo, hi), creating it if needed.
func (e *Engine) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	r, i := e.find(level, lo, hi)
	if r != 0 {
		return r
	}
	r = Ref(len(e.nodes))
	e.nodes = append(e.nodes, node{level: level, lo: lo, hi: hi})
	e.unique[i] = r
	if 2*len(e.nodes) > len(e.unique) {
		e.grow()
	}
	return r
}

// grow doubles the unique table (restoring load ≤ 1/2) and, until it
// reaches its cap, the computed cache with it — the ITE working set
// scales with the number of nodes in play. A direct-mapped entry at
// index i of n lands on i or i+n of 2n, so moving the cache loses
// nothing.
func (e *Engine) grow() {
	e.rebuildUnique(2 * len(e.unique))
	if n := e.cacheSlots(); n > len(e.cache) {
		old := e.cache
		e.cache = make([]iteSlot, n)
		for _, s := range old {
			if s.f != False {
				e.cache[hashITE(s.f, s.g, s.h)&uint64(n-1)] = s
			}
		}
	}
}

// cacheSlots is the computed-cache size that goes with the current
// unique table: as many slots, up to the cap.
func (e *Engine) cacheSlots() int { return min(len(e.unique), e.cacheCap) }

// rebuildUnique replaces the unique table with one of the given size
// (a power of two at least twice the node count) refilled from the node
// array, which holds every key the table ever needs.
func (e *Engine) rebuildUnique(slots int) {
	if slots > maxSlots {
		panic("bdd: node table full")
	}
	e.unique = make([]Ref, slots)
	mask := uint64(slots - 1)
	for r := 2; r < len(e.nodes); r++ {
		nd := e.nodes[r]
		i := hashNode(nd.level, nd.lo, nd.hi) & mask
		for e.unique[i] != 0 {
			i = (i + 1) & mask
		}
		e.unique[i] = Ref(r)
	}
}

// Var returns the predicate that is true exactly when variable i is 1.
func (e *Engine) Var(i int) Ref {
	if i < 0 || i >= e.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, e.nvars))
	}
	return e.mk(int32(i), False, True)
}

// NVar returns the predicate that is true exactly when variable i is 0.
func (e *Engine) NVar(i int) Ref {
	if i < 0 || i >= e.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, e.nvars))
	}
	return e.mk(int32(i), True, False)
}

// ite computes if-then-else(f, g, h) = (f ∧ g) ∨ (¬f ∧ h).
func (e *Engine) ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	k := hashITE(f, g, h)
	if s := &e.cache[k&uint64(len(e.cache)-1)]; s.f == f && s.g == g && s.h == h {
		e.cacheHits++
		return s.r
	}
	e.cacheMisses++
	nf, ng, nh := e.nodes[f], e.nodes[g], e.nodes[h]
	top := min(nf.level, ng.level, nh.level)
	f0, f1 := cofactor(nf, f, top)
	g0, g1 := cofactor(ng, g, top)
	h0, h1 := cofactor(nh, h, top)
	lo := e.ite(f0, g0, h0)
	hi := e.ite(f1, g1, h1)
	r := e.mk(top, lo, hi)
	// The recursion may have doubled the cache; index the table as it is
	// now. Every subproblem tests deeper variables, so whatever the slot
	// holds is another key's entry.
	s := &e.cache[k&uint64(len(e.cache)-1)]
	if s.f != False {
		e.cacheEvictions++
	}
	*s = iteSlot{f: f, g: g, h: h, r: r}
	return r
}

// cofactor returns the (lo, hi) cofactors of node n (with Ref r) with
// respect to the variable at level top.
func cofactor(n node, r Ref, top int32) (lo, hi Ref) {
	if n.level == top {
		return n.lo, n.hi
	}
	return r, r
}

// And returns a ∧ b and counts one predicate operation.
func (e *Engine) And(a, b Ref) Ref {
	e.ops++
	return e.ite(a, b, False)
}

// Or returns a ∨ b and counts one predicate operation.
func (e *Engine) Or(a, b Ref) Ref {
	e.ops++
	return e.ite(a, True, b)
}

// Not returns ¬a and counts one predicate operation.
func (e *Engine) Not(a Ref) Ref {
	e.ops++
	return e.ite(a, False, True)
}

// Diff returns a ∧ ¬b. It counts as two predicate operations (a negation
// and a conjunction), matching how the paper's pseudocode composes it.
func (e *Engine) Diff(a, b Ref) Ref {
	e.ops += 2
	return e.ite(b, False, a)
}

// Xor returns a ⊕ b, counted as one operation.
func (e *Engine) Xor(a, b Ref) Ref {
	e.ops++
	return e.ite(a, e.ite(b, False, True), b)
}

// Implies reports whether a ⇒ b holds for all assignments, i.e. a ∧ ¬b = ∅.
// It performs one (counted) predicate operation.
func (e *Engine) Implies(a, b Ref) bool {
	e.ops++
	return e.ite(a, b, True) == True
}

// Overlaps reports whether a ∧ b is non-empty. One counted operation.
func (e *Engine) Overlaps(a, b Ref) bool {
	e.ops++
	return e.ite(a, b, False) != False
}

// AndN folds And over all arguments; AndN() = True.
func (e *Engine) AndN(refs ...Ref) Ref {
	r := True
	for _, x := range refs {
		r = e.And(r, x)
		if r == False {
			return False
		}
	}
	return r
}

// OrN folds Or over all arguments; OrN() = False.
func (e *Engine) OrN(refs ...Ref) Ref {
	r := False
	for _, x := range refs {
		r = e.Or(r, x)
		if r == True {
			return True
		}
	}
	return r
}

// Cube returns the conjunction of literals for the variables in vars,
// where bits selects the polarity of each (bit i of bits corresponds to
// vars[i]). vars must be strictly increasing so the cube can be built
// bottom-up in canonical order. Cube does not count predicate operations:
// it is the primitive used to construct match predicates, not a
// model-update operation.
func (e *Engine) Cube(vars []int, bits uint64) Ref {
	if len(vars) > 64 {
		panic(fmt.Sprintf("bdd: Cube with %d variables exceeds the 64-bit polarity mask", len(vars)))
	}
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if v < 0 || v >= e.nvars {
			panic(fmt.Sprintf("bdd: variable %d out of range", v))
		}
		if i+1 < len(vars) && vars[i+1] <= v {
			panic("bdd: Cube variables must be strictly increasing")
		}
		if bits&(1<<uint(i)) != 0 {
			r = e.mk(int32(v), False, r)
		} else {
			r = e.mk(int32(v), r, False)
		}
	}
	return r
}

// Eval evaluates predicate r under the given assignment (assignment[i] is
// the value of variable i). Used by tests to cross-check algebra.
func (e *Engine) Eval(r Ref, assignment []bool) bool {
	for r != True && r != False {
		n := e.nodes[r]
		if assignment[n.level] {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// SatCount returns the number of satisfying assignments of r over the full
// variable universe, as a float64 (exact for < 2^53).
func (e *Engine) SatCount(r Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(r Ref, level int32) float64
	count = func(r Ref, level int32) float64 {
		if r == False {
			return 0
		}
		n := e.nodes[r]
		var sub float64
		if r == True {
			sub = 1
			n.level = int32(e.nvars)
		} else if c, ok := memo[r]; ok {
			sub = c
		} else {
			sub = count(n.lo, n.level+1) + count(n.hi, n.level+1)
			memo[r] = sub
		}
		return sub * pow2(int(n.level)-int(level))
	}
	return count(r, 0)
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// AnySat returns one satisfying assignment of r, or nil if r is False.
func (e *Engine) AnySat(r Ref) []bool {
	if r == False {
		return nil
	}
	a := make([]bool, e.nvars)
	for r != True {
		n := e.nodes[r]
		if n.lo != False {
			r = n.lo
		} else {
			a[n.level] = true
			r = n.hi
		}
	}
	return a
}

// Exists existentially quantifies the given variables out of r: the
// result is true for an assignment iff some setting of the quantified
// variables satisfies r. vars must be strictly increasing. Counts one
// predicate operation per quantified variable (each is a disjunction of
// cofactors). Used by the header-rewrite extension (a rewrite "field :=
// v" maps predicate p to Exists(p, fieldBits) ∧ (field = v)).
func (e *Engine) Exists(r Ref, vars []int) Ref {
	if len(vars) == 0 {
		return r
	}
	for i, v := range vars {
		if v < 0 || v >= e.nvars {
			panic(fmt.Sprintf("bdd: variable %d out of range", v))
		}
		if i > 0 && vars[i-1] >= v {
			panic("bdd: Exists variables must be strictly increasing")
		}
	}
	e.ops += uint64(len(vars))
	memo := make(map[Ref]Ref)
	var rec func(r Ref, vi int) Ref
	rec = func(r Ref, vi int) Ref {
		if vi >= len(vars) || r == True || r == False {
			return r
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := e.nodes[r]
		// Skip quantifier variables above this node's level.
		for vi < len(vars) && int32(vars[vi]) < n.level {
			vi++
		}
		var out Ref
		switch {
		case vi >= len(vars):
			out = r
		case int32(vars[vi]) == n.level:
			lo := rec(n.lo, vi+1)
			hi := rec(n.hi, vi+1)
			out = e.ite(lo, True, hi) // lo ∨ hi
		default:
			out = e.mk(n.level, rec(n.lo, vi), rec(n.hi, vi))
		}
		memo[r] = out
		return out
	}
	return rec(r, 0)
}
