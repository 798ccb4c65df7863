// Package atoms implements the Delta-net interval-atom predicate engine
// (Horn, Kheradmand, Prasad — NSDI'17), promoted from the
// internal/deltanet baseline into a first-class pred.Engine the hybrid
// representation can run a subspace on.
//
// A predicate is a canonical set of disjoint, sorted, half-open
// intervals on the concatenated header line [0, 2^W): the same encoding
// deltanet.IntervalsFor produces for a match descriptor. Sets are
// hash-consed — interned by their canonical interval list — so "equal
// Refs ⇔ equivalent predicates" holds exactly as it does for the BDD
// engine, which is what lets the Fast IMT Reduce II step and the CE2D
// class maps key on Refs without knowing the representation.
//
// On pure longest-prefix workloads every rule is one interval and the
// engine's operations are linear merges over tiny sets — the §5.1
// regime where Delta-net beats BDDs. The moment a ternary or
// multi-field rule appears the interval count explodes
// (deltanet.ErrIntervalExplosion); the hybrid layer then cuts the
// subspace over to the BDD engine rather than paying that blowup here.
//
// Operation counting follows §3.3 of the paper exactly as the BDD
// engine does: one ∧/∨/¬ invocation is one predicate operation,
// regardless of internal interval visits or of whether a terminal
// short-circuit or the op cache answered it (Diff counts two, matching
// how the paper's pseudocode composes it).
//
// # Ownership
//
// An Engine is single-owner: it holds no locks and its counters are
// plain words, so all methods require the owner's exclusion, which Flash
// provides with the subspace worker's mutex (w.mu).
package atoms

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
)

// MaxVars is the widest header line the atom representation supports:
// interval endpoints are uint64 and the exclusive upper bound 2^W must
// be representable.
const MaxVars = 63

// compileBound caps how many disjoint intervals one compiled descriptor
// may hold before the atom representation is judged unprofitable: the
// linear merges that make atoms fast on prefix workloads degrade past a
// few thousand intervals per set, while a BDD holds the same predicate
// in logarithmic depth. Compile reports a wider descriptor as
// deltanet.ErrIntervalExplosion — for the hybrid layer a cutover
// trigger, not a malformed match.
const compileBound = 1024

// Table sizes, in slots. Both tables are powers of two that start small
// and double together as the interned-set count grows, so a fresh
// engine costs a few KB and an engine that sees a few hundred operations
// does not spend them allocating and zeroing tables it never fills; the
// intern table keeps doubling to hold load ≤ 1/2, the op cache — four
// slots per intern slot — stops at maxOpSlots (1 MB).
const (
	minInternSlots = 1 << 6
	minOpSlots     = 1 << 8
	maxOpSlots     = 1 << 16
)

// Engine is an interval-atom predicate engine over a W-bit header line.
// It satisfies pred.Engine: Refs are dense int32 handles into the
// interned-set table, with bdd.False (0) the empty set and bdd.True (1)
// the full line, so zero-valued predicates mean "empty header space"
// under both representations. Interned interval slices are immutable.
type Engine struct {
	nvars int
	full  deltanet.Interval // [0, 2^W)
	opCap int               // op cache slot cap (maxOpSlots outside tests)

	sets [][]deltanet.Interval // Ref → canonical interval set
	nivs int                   // total intervals across interned sets (memory proxy)

	// intern is the hash-consing table: open-addressed with linear
	// probing, keyed by a 64-bit hash of the interval slice and confirmed
	// by slice comparison, so a lookup allocates nothing. ref 0 marks an
	// empty slot (the empty set is never stored — it is bdd.False by
	// construction). Entries are only ever removed by GC, which rebuilds
	// the table, so probing needs no tombstones.
	intern []internSlot
	// opCache memoizes the ref-valued operations (∧ ∨ ¬ \) keyed by
	// operand refs: direct-mapped, one probe, a colliding key simply
	// overwrites. Lossy is sound because hash consing makes Ref equality
	// predicate equality and refs are stable between GCs: an entry can
	// only ever say "this op on these refs is that ref", so losing one
	// costs a recompute that re-interns to the very same Ref. GC moves
	// refs and zeroes the table.
	opCache []opSlot
	// scratch is the reusable result buffer every op builds into; its
	// contents are copied out only when the result is a set the engine
	// has never interned.
	scratch []deltanet.Interval
	// compileCache memoizes single-field descriptor compilations for one
	// layout (a subspace engine only ever sees one): churn re-installs
	// the same prefixes over and over, and deltanet.IntervalsFor walks
	// the whole layout per call.
	compileCache  map[fib.FieldMatch]bdd.Ref
	compileLayout *hs.Layout

	// Activity counters.
	ops, cacheHits, cacheMisses, cacheEvict uint64
	gcRuns, gcReclaimed                     uint64
}

// internSlot is one hash-consing table entry; ref 0 means empty.
type internSlot struct {
	hash uint64
	ref  bdd.Ref
}

// opSlot is one memoized operation application; op 0 means empty.
type opSlot struct {
	a, b, r bdd.Ref
	op      uint8
}

// Operation discriminants for opSlot (nonzero: a zeroed slot is empty).
const (
	opAnd = iota + 1
	opOr
	opNot
	opDiff
)

// New returns an atom engine over an nvars-bit header line. nvars must
// be in [1, MaxVars]; wider layouts cannot be represented as uint64
// intervals and must use the BDD engine.
func New(nvars int) *Engine {
	return newSized(nvars, minInternSlots, minOpSlots, maxOpSlots)
}

// newSized is New with explicit initial table sizes and op cache cap
// (powers of two); tests shrink them so every collision, overwrite and
// resize path runs within a few operations.
func newSized(nvars, internSlots, opSlots, opCap int) *Engine {
	if nvars <= 0 || nvars > MaxVars {
		panic(fmt.Sprintf("atoms: invalid line width %d (must be 1..%d)", nvars, MaxVars))
	}
	e := &Engine{
		nvars:   nvars,
		full:    deltanet.Interval{Lo: 0, Hi: uint64(1) << uint(nvars)},
		opCap:   opCap,
		sets:    make([][]deltanet.Interval, 1, internSlots/2+1), // Ref 0: the empty set
		intern:  make([]internSlot, internSlots),
		opCache: make([]opSlot, opSlots),
	}
	if r := e.internSet([]deltanet.Interval{e.full}); r != bdd.True {
		panic("atoms: full line did not intern as bdd.True")
	}
	return e
}

// mix folds the 128-bit product of its operands into 64 bits (the
// wyhash/mum primitive); the low bits of the result are mixed well
// enough to index a power-of-two table directly.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hashIntervals hashes a canonical interval set for the intern table.
func hashIntervals(ivs []deltanet.Interval) uint64 {
	h := uint64(len(ivs)) ^ 0x9e3779b97f4a7c15
	for _, iv := range ivs {
		h = mix(h^iv.Lo^0xa0761d6478bd642f, iv.Hi^0xe7037ed1a0b428db)
	}
	return h
}

// opIndex hashes an operation key; callers mask it to the table size.
func opIndex(op uint8, a, b bdd.Ref) uint64 {
	return mix(uint64(uint32(a))<<32|uint64(uint32(b)), 0x8ebc6af09c88c6e3+uint64(op)<<1)
}

// set returns the interned set for r.
func (e *Engine) set(r bdd.Ref) []deltanet.Interval {
	if r < 0 || int(r) >= len(e.sets) {
		panic(fmt.Sprintf("atoms: ref %d outside the interned range [0,%d)", r, len(e.sets)))
	}
	return e.sets[r]
}

// operands counts one predicate operation and returns both operand
// sets for the yes/no queries to walk.
func (e *Engine) operands(a, b bdd.Ref) (as, bs []deltanet.Interval) {
	e.ops++
	return e.set(a), e.set(b)
}

// find probes the intern table for a non-empty canonical set with hash
// h: its Ref if interned, else 0 and the empty slot where it belongs.
func (e *Engine) find(ivs []deltanet.Interval, h uint64) (bdd.Ref, uint64) {
	mask := uint64(len(e.intern) - 1)
	i := h & mask
	for ; e.intern[i].ref != 0; i = (i + 1) & mask {
		if s := e.intern[i]; s.hash == h && slices.Equal(e.sets[s.ref], ivs) {
			return s.ref, i
		}
	}
	return 0, i
}

// internSet hash-conses a canonical set and returns its Ref. ivs is only
// read: a set the engine has not seen is copied, so callers may pass
// (and keep reusing) the scratch buffer.
func (e *Engine) internSet(ivs []deltanet.Interval) bdd.Ref {
	if len(ivs) == 0 {
		return bdd.False
	}
	h := hashIntervals(ivs)
	r, i := e.find(ivs, h)
	if r != 0 {
		return r
	}
	r = bdd.Ref(len(e.sets))
	e.sets = append(e.sets, slices.Clone(ivs))
	e.nivs += len(ivs)
	e.intern[i] = internSlot{hash: h, ref: r}
	if 2*len(e.sets) > len(e.intern) {
		e.grow()
	}
	return r
}

// grow doubles the intern table (restoring load ≤ 1/2) and, until
// it reaches its cap, the op cache with it — the op working set scales
// with the number of distinct predicates in play. Both moves reuse the
// stored keys: an intern slot carries its hash, and a direct-mapped
// entry at index i of n lands on i or i+n of 2n, so nothing collides.
func (e *Engine) grow() {
	old := e.intern
	e.intern = make([]internSlot, 2*len(old))
	for _, s := range old {
		if s.ref != 0 {
			e.place(s)
		}
	}
	if n := 2 * len(e.opCache); n <= e.opCap {
		oldOps := e.opCache
		e.opCache = make([]opSlot, n)
		for _, s := range oldOps {
			if s.op != 0 {
				e.opCache[opIndex(s.op, s.a, s.b)&uint64(n-1)] = s
			}
		}
	}
}

// place stores a slot known to be absent from the intern table.
func (e *Engine) place(s internSlot) {
	mask := uint64(len(e.intern) - 1)
	i := s.hash & mask
	for e.intern[i].ref != 0 {
		i = (i + 1) & mask
	}
	e.intern[i] = s
}

// apply runs one ref-valued operation: count it, answer terminal and
// identity cases outright, then probe the op cache; only a miss merges
// intervals (into the scratch buffer) and consults the intern table. A
// hit, and a miss whose result is already interned, allocate nothing.
func (e *Engine) apply(op uint8, a, b bdd.Ref) bdd.Ref {
	e.ops++
	if op == opDiff {
		e.ops++ // a ∧ ¬b is two §3.3 operations, as on the BDD engine
	}
	as, bs := e.set(a), e.set(b) // also validates both refs
	switch {
	case op == opNot:
		if a <= bdd.True {
			return a ^ 1
		}
	case op == opDiff:
		switch {
		case a == b || a == bdd.False || b == bdd.True:
			return bdd.False
		case b == bdd.False:
			return a
		}
	case a == b:
		return a
	case a == bdd.False: // ∧ ∨ order their operands, so a < b here
		if op == opAnd {
			return bdd.False
		}
		return b
	case a == bdd.True:
		if op == opAnd {
			return b
		}
		return bdd.True
	}
	h := opIndex(op, a, b)
	if s := e.opCache[h&uint64(len(e.opCache)-1)]; s.op == op && s.a == a && s.b == b {
		e.cacheHits++
		return s.r
	}
	e.cacheMisses++
	buf := e.scratch[:0]
	switch op {
	case opAnd:
		buf = intersect(buf, as, bs)
	case opOr:
		buf = union(buf, as, bs)
	case opNot:
		buf = subtract(buf, e.sets[bdd.True], as)
	case opDiff:
		buf = subtract(buf, as, bs)
	}
	e.scratch = buf
	r := e.internSet(buf)
	// Interning may have doubled the cache; index the table as it is now.
	s := &e.opCache[h&uint64(len(e.opCache)-1)]
	if s.op != 0 {
		e.cacheEvict++
	}
	*s = opSlot{a: a, b: b, r: r, op: op}
	return r
}

// normalize sorts and merges a scratch interval list into canonical
// form in place: empty intervals dropped, overlapping or adjacent runs
// fused.
func normalize(ivs []deltanet.Interval) []deltanet.Interval {
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.Lo < iv.Hi {
			out = append(out, iv)
		}
	}
	slices.SortFunc(out, func(x, y deltanet.Interval) int { return cmp.Compare(x.Lo, y.Lo) })
	merged := out[:0]
	for _, iv := range out {
		merged = appendFused(merged, iv)
	}
	return merged
}

// appendFused appends iv to a canonical prefix whose intervals all start
// at or before iv.Lo, fusing it into the last one when they overlap or
// touch.
func appendFused(out []deltanet.Interval, iv deltanet.Interval) []deltanet.Interval {
	if n := len(out); n > 0 && out[n-1].Hi >= iv.Lo {
		if iv.Hi > out[n-1].Hi {
			out[n-1].Hi = iv.Hi
		}
		return out
	}
	return append(out, iv)
}

// NumVars reports the header-line width in bits.
func (e *Engine) NumVars() int { return e.nvars }

// NumNodes reports the memory-footprint proxy: total intervals held by
// interned sets, plus the two terminals — the atom analogue of the BDD
// engine's node count.
func (e *Engine) NumNodes() int { return e.nivs + 2 }

// Ops reports cumulative §3.3 predicate operations.
func (e *Engine) Ops() uint64 { return e.ops }

// ResetOps zeroes the predicate-operation counter.
func (e *Engine) ResetOps() { e.ops = 0 }

// CacheStats reports the memoized-operation cache counters (the atom
// analogue of the BDD engine's ITE computed cache). Operations answered
// by a terminal or identity short-circuit never probe the cache and
// count as neither.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.cacheHits, e.cacheMisses
}

// CacheEvictions reports op cache entries overwritten by a colliding
// key (the cache is direct-mapped and lossy; GC's wholesale zeroing is
// not counted).
func (e *Engine) CacheEvictions() uint64 { return e.cacheEvict }

// GCRuns reports completed GC passes.
func (e *Engine) GCRuns() uint64 { return e.gcRuns }

// ReclaimedNodes reports intervals swept across all GC passes.
func (e *Engine) ReclaimedNodes() uint64 { return e.gcReclaimed }

// And returns a ∧ b (interval intersection); one counted operation.
// Commutative, so operands are ordered to double the cache hit rate.
func (e *Engine) And(a, b bdd.Ref) bdd.Ref {
	if b < a {
		a, b = b, a
	}
	return e.apply(opAnd, a, b)
}

// Or returns a ∨ b (interval union); one counted operation.
// Commutative, so operands are ordered to double the cache hit rate.
func (e *Engine) Or(a, b bdd.Ref) bdd.Ref {
	if b < a {
		a, b = b, a
	}
	return e.apply(opOr, a, b)
}

// Not returns ¬a (complement within [0, 2^W)); one counted operation.
func (e *Engine) Not(a bdd.Ref) bdd.Ref { return e.apply(opNot, a, a) }

// Diff returns a ∧ ¬b; two counted operations, matching the BDD engine.
func (e *Engine) Diff(a, b bdd.Ref) bdd.Ref { return e.apply(opDiff, a, b) }

// Implies reports a ⊆ b; one counted operation. b is canonical, so each
// interval of a must sit inside a single interval of b: one two-pointer
// walk, stopping at the first interval that does not.
func (e *Engine) Implies(a, b bdd.Ref) bool {
	as, bs := e.operands(a, b)
	j := 0
	for _, iv := range as {
		for j < len(bs) && bs[j].Hi <= iv.Lo {
			j++
		}
		if j == len(bs) || bs[j].Lo > iv.Lo || bs[j].Hi < iv.Hi {
			return false
		}
	}
	return true
}

// Overlaps reports a ∩ b ≠ ∅; one counted operation.
func (e *Engine) Overlaps(a, b bdd.Ref) bool {
	as, bs := e.operands(a, b)
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		if as[i].Hi <= bs[j].Lo {
			i++
		} else if bs[j].Hi <= as[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// intersect builds the canonical intersection of two canonical sets in
// out (passed empty, for its capacity).
func intersect(out, as, bs []deltanet.Interval) []deltanet.Interval {
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		lo := max(as[i].Lo, bs[j].Lo)
		hi := min(as[i].Hi, bs[j].Hi)
		if lo < hi {
			out = append(out, deltanet.Interval{Lo: lo, Hi: hi})
		}
		if as[i].Hi <= bs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// union builds the canonical union of two canonical sets in out: one
// linear merge by Lo, fusing overlapping or adjacent runs as it goes.
func union(out, as, bs []deltanet.Interval) []deltanet.Interval {
	i, j := 0, 0
	for i < len(as) || j < len(bs) {
		if j == len(bs) || (i < len(as) && as[i].Lo <= bs[j].Lo) {
			out = appendFused(out, as[i])
			i++
		} else {
			out = appendFused(out, bs[j])
			j++
		}
	}
	return out
}

// subtract builds the canonical difference as \ bs of two canonical
// sets in out, without materialising the complement of bs; complement
// is subtraction from the full line.
func subtract(out, as, bs []deltanet.Interval) []deltanet.Interval {
	j := 0
	for _, iv := range as {
		for j < len(bs) && bs[j].Hi <= iv.Lo {
			j++
		}
		cur := iv.Lo
		for k := j; k < len(bs) && bs[k].Lo < iv.Hi; k++ {
			if bs[k].Lo > cur {
				out = append(out, deltanet.Interval{Lo: cur, Hi: bs[k].Lo})
			}
			cur = bs[k].Hi
		}
		if cur < iv.Hi {
			out = append(out, deltanet.Interval{Lo: cur, Hi: iv.Hi})
		}
	}
	return out
}

// point converts an hs.Assignment (line bits, most significant first)
// to its position on the header line.
func (e *Engine) point(assignment []bool) uint64 {
	var x uint64
	for i := 0; i < e.nvars; i++ {
		x <<= 1
		if assignment[i] {
			x |= 1
		}
	}
	return x
}

// Eval reports whether the assignment's header-line point lies in r.
func (e *Engine) Eval(r bdd.Ref, assignment []bool) bool {
	x := e.point(assignment)
	ivs := e.Intervals(r)
	n := sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi > x })
	return n < len(ivs) && ivs[n].Lo <= x
}

// AnySat returns one satisfying assignment of r, or nil if r is empty.
func (e *Engine) AnySat(r bdd.Ref) []bool {
	ivs := e.Intervals(r)
	if len(ivs) == 0 {
		return nil
	}
	x := ivs[0].Lo
	a := make([]bool, e.nvars)
	for i := 0; i < e.nvars; i++ {
		a[i] = x&(1<<uint(e.nvars-1-i)) != 0
	}
	return a
}

// SatCount returns the number of header-line points r covers.
func (e *Engine) SatCount(r bdd.Ref) float64 {
	var total float64
	for _, iv := range e.Intervals(r) {
		total += float64(iv.Hi - iv.Lo)
	}
	return total
}

// Intervals returns r's canonical interval set. The slice is immutable;
// the hybrid cutover uses it to recompile each live atom predicate into
// BDD form (hs.Space.LineRange per interval).
func (e *Engine) Intervals(r bdd.Ref) []deltanet.Interval { return e.set(r) }

// FromIntervals interns a (possibly unnormalized) interval list.
// Intervals must lie within [0, 2^W). The list is normalized in the
// scratch buffer, so ivs is left untouched.
func (e *Engine) FromIntervals(ivs []deltanet.Interval) bdd.Ref {
	e.scratch = append(e.scratch[:0], ivs...)
	norm := normalize(e.scratch)
	if n := len(norm); n > 0 && norm[n-1].Hi > e.full.Hi {
		panic(fmt.Sprintf("atoms: interval [%d,%d) outside the %d-bit line", norm[n-1].Lo, norm[n-1].Hi, e.nvars))
	}
	return e.internSet(norm)
}

// NumRefs reports how many distinct predicates the engine has interned,
// terminals included. Refs are dense in [0, NumRefs), which is what
// lets the hybrid cutover size a bdd.Remap over the whole atom-era Ref
// range.
func (e *Engine) NumRefs() int { return len(e.sets) }

// Compile converts a match descriptor into an atom predicate via
// deltanet.IntervalsFor. A descriptor that is valid but explodes past
// the interval budget — IntervalsFor's own, or compileBound intervals
// in the compiled set — returns deltanet.ErrIntervalExplosion (test with
// errors.Is): the hybrid layer's signal to cut the subspace over to
// BDDs; any other error is a malformed match.
func (e *Engine) Compile(layout *hs.Layout, d fib.MatchDesc) (bdd.Ref, error) {
	// Single-field descriptors — the only kind the hybrid layer keeps on
	// atoms — are memoized per layout: churn reinstalls the same
	// prefixes constantly and IntervalsFor walks the whole layout each
	// time. The cache is sound only while refs are stable; GC clears it.
	single := len(d) == 1
	if single && e.compileLayout == layout {
		if r, ok := e.compileCache[d[0]]; ok {
			return r, nil
		}
	}
	ivs, err := deltanet.IntervalsFor(layout, d)
	if err != nil {
		return bdd.False, err
	}
	if len(ivs) > compileBound {
		return bdd.False, fmt.Errorf("atoms: rule compiles to %d intervals (bound %d): %w", len(ivs), compileBound, deltanet.ErrIntervalExplosion)
	}
	r := e.FromIntervals(ivs)
	if single {
		if e.compileLayout == nil {
			e.compileLayout = layout
			e.compileCache = make(map[fib.FieldMatch]bdd.Ref, 64)
		}
		if e.compileLayout == layout {
			e.compileCache[d[0]] = r
		}
	}
	return r, nil
}

// CheckInvariants verifies canonicity: terminals in their fixed slots,
// every interned set sorted, disjoint, non-adjacent, in-range, and the
// intern table bijective with the set table. A violation means Ref
// equality no longer implies predicate equality.
func (e *Engine) CheckInvariants() error {
	if len(e.sets) < 2 {
		return fmt.Errorf("atoms: terminal sets missing (%d interned)", len(e.sets))
	}
	if len(e.sets[bdd.False]) != 0 {
		return fmt.Errorf("atoms: ref 0 is not the empty set")
	}
	if len(e.sets[bdd.True]) != 1 || e.sets[bdd.True][0] != e.full {
		return fmt.Errorf("atoms: ref 1 is not the full line")
	}
	if n := len(e.intern); n&(n-1) != 0 || 2*len(e.sets) > n {
		return fmt.Errorf("atoms: intern table of %d slots for %d sets is not a power of two at load ≤ 1/2", n, len(e.sets))
	}
	// Every set but the empty one is found by probing from its own hash,
	// and the table holds nothing else: hash consing is a bijection.
	used := 0
	for _, s := range e.intern {
		if s.ref != 0 {
			used++
		}
	}
	if used != len(e.sets)-1 {
		return fmt.Errorf("atoms: intern table holds %d entries for %d non-empty sets; hash consing broken", used, len(e.sets)-1)
	}
	total := 0
	for r, ivs := range e.sets {
		total += len(ivs)
		for i, iv := range ivs {
			if iv.Lo >= iv.Hi {
				return fmt.Errorf("atoms: ref %d interval %d is empty [%d,%d)", r, i, iv.Lo, iv.Hi)
			}
			if iv.Hi > e.full.Hi {
				return fmt.Errorf("atoms: ref %d interval %d exceeds the line [%d,%d)", r, i, iv.Lo, iv.Hi)
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo {
				return fmt.Errorf("atoms: ref %d intervals %d,%d not disjoint-sorted-merged", r, i-1, i)
			}
		}
		if r == int(bdd.False) {
			continue
		}
		if len(ivs) == 0 {
			return fmt.Errorf("atoms: ref %d duplicates the empty set", r)
		}
		if got, _ := e.find(ivs, hashIntervals(ivs)); got != bdd.Ref(r) {
			return fmt.Errorf("atoms: ref %d not canonically interned (lookup finds %d)", r, got)
		}
	}
	if total != e.nivs {
		return fmt.Errorf("atoms: interval count proxy %d, actual %d", e.nivs, total)
	}
	// The op cache may forget, never lie: whatever it still holds must
	// name live refs.
	for i, s := range e.opCache {
		if s.op != 0 && (int(s.a) >= len(e.sets) || int(s.b) >= len(e.sets) || int(s.r) >= len(e.sets)) {
			return fmt.Errorf("atoms: op cache slot %d holds a ref outside [0,%d)", i, len(e.sets))
		}
	}
	return nil
}

// GC sweeps interned sets not in the caller's root set. Atom sets have
// no children, so reachability is the root set plus the terminals. The
// surviving sets are compacted preserving relative order and the intern
// table is refilled from the surviving slots' stored hashes; both memo
// tables hold pre-compaction refs and are simply zeroed. The returned
// remap follows the bdd.Remap contract (dead entries panic on Apply).
func (e *Engine) GC(roots func(yield func(bdd.Ref))) (bdd.Remap, bdd.GCStats) {
	n := len(e.sets)
	live := make([]bool, n)
	live[bdd.False], live[bdd.True] = true, true
	roots(func(r bdd.Ref) {
		if r < 0 || int(r) >= n {
			panic(fmt.Sprintf("atoms: GC root %d outside the interned range [0,%d)", r, n))
		}
		live[r] = true
	})
	remap := make(bdd.Remap, n)
	sets := e.sets[:0]
	nivs := 0
	for i := 0; i < n; i++ {
		if !live[i] {
			remap[i] = bdd.Ref(-1)
			continue
		}
		remap[i] = bdd.Ref(len(sets))
		sets = append(sets, e.sets[i])
		nivs += len(e.sets[i])
	}
	clear(e.sets[len(sets):]) // drop the swept sets' storage
	st := bdd.GCStats{Before: n, After: len(sets), Reclaimed: n - len(sets)}
	e.sets, e.nivs = sets, nivs
	old := e.intern
	e.intern = make([]internSlot, len(old))
	for _, s := range old {
		if s.ref != 0 && live[s.ref] {
			e.place(internSlot{hash: s.hash, ref: remap[s.ref]})
		}
	}
	clear(e.opCache)
	clear(e.compileCache)
	e.gcRuns++
	e.gcReclaimed += uint64(st.Reclaimed)
	return remap, st
}
