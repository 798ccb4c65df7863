package bdd

import "fmt"

// CheckInvariants verifies the engine's structural invariants: every
// nonterminal node is non-redundant (lo ≠ hi), respects the fixed
// variable order (children are terminals or test later variables), has
// in-range children, and the unique table hash-conses exactly the
// nonterminal nodes: the table is a power of two at load ≤ 1/2, holds
// one entry per node, and probing from a node's own hash finds that
// node. The computed cache has the size the unique table calls for and
// may forget, never lie: whatever it still holds must name existing
// nodes. A violation means canonicity is lost — predicate equality by
// Ref comparison (which the whole verifier relies on) is no longer
// sound.
//
// The walk is O(nodes); the flashcheck layer calls it after each applied
// update block.
func (e *Engine) CheckInvariants() error {
	n := len(e.nodes)
	for i := 2; i < n; i++ {
		nd := e.nodes[i]
		if nd.level < 0 || int(nd.level) >= e.nvars {
			return fmt.Errorf("bdd: node %d tests out-of-range variable %d (nvars=%d)", i, nd.level, e.nvars)
		}
		if nd.lo == nd.hi {
			return fmt.Errorf("bdd: node %d is redundant (lo == hi == %d); reduction broken", i, nd.lo)
		}
		for _, c := range [2]Ref{nd.lo, nd.hi} {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("bdd: node %d has out-of-range child %d", i, c)
			}
			if c >= 2 && e.nodes[c].level <= nd.level {
				return fmt.Errorf("bdd: node %d (level %d) has child %d at level %d; variable order violated", i, nd.level, c, e.nodes[c].level)
			}
		}
	}
	if slots := len(e.unique); slots&(slots-1) != 0 || 2*n > slots {
		return fmt.Errorf("bdd: unique table of %d slots for %d nodes is not a power of two at load ≤ 1/2", slots, n)
	}
	if len(e.cache) != e.cacheSlots() {
		return fmt.Errorf("bdd: computed cache of %d slots beside a unique table of %d (cap %d)", len(e.cache), len(e.unique), e.cacheCap)
	}
	used := 0
	for _, r := range e.unique {
		if r != 0 {
			used++
		}
	}
	if used != n-2 {
		return fmt.Errorf("bdd: unique table holds %d entries for %d nonterminal nodes; hash consing broken", used, n-2)
	}
	for i := 2; i < n; i++ {
		nd := e.nodes[i]
		if got, _ := e.find(nd.level, nd.lo, nd.hi); got != Ref(i) {
			return fmt.Errorf("bdd: node %d not canonically interned (lookup finds %d); hash consing broken", i, got)
		}
	}
	for i, s := range e.cache {
		if s.f != False && (int(s.f) >= n || int(s.g) >= n || int(s.h) >= n || int(s.r) >= n) {
			return fmt.Errorf("bdd: computed cache slot %d holds a ref outside [0,%d)", i, n)
		}
	}
	return nil
}
