package bdd

import "fmt"

// ExportNodes dumps the decision nodes (everything past the two
// terminals) as flat (level, lo, hi) triples in store order. Because mk
// only ever allocates nodes whose children already exist, store order is
// children-before-parents, so the dump restores with one linear pass.
// The returned slice is a copy — a later GC compaction cannot mutate it.
func (e *Engine) ExportNodes() []int32 {
	out := make([]int32, 0, 3*(len(e.nodes)-2))
	for _, nd := range e.nodes[2:] {
		out = append(out, nd.level, int32(nd.lo), int32(nd.hi))
	}
	return out
}

// NewFromNodes rebuilds an Engine from an ExportNodes dump. The dump is
// fully validated — this is the restore path for checkpoint files, which
// may be torn or hostile, so every structural invariant the engine
// relies on is checked rather than assumed:
//
//   - the dump length is a whole number of triples,
//   - levels lie in [0, nvars),
//   - children precede their parent (lo/hi < the node's own Ref),
//   - no redundant nodes (lo != hi),
//   - node levels strictly decrease toward the root (child level >
//     parent level, terminals sit at the sentinel level nvars),
//   - no duplicate (level, lo, hi) entries (hash consing would be
//     silently broken, violating "equal Refs ⇔ equivalent predicates").
//
// Because restore replays the exact node sequence the donor engine
// built, every Ref recorded elsewhere in a checkpoint stays valid
// against the rebuilt engine.
func NewFromNodes(nvars int, dump []int32) (*Engine, error) {
	if nvars <= 0 || nvars > 1<<15-1 {
		return nil, fmt.Errorf("bdd: restore: invalid variable count %d", nvars)
	}
	if len(dump)%3 != 0 {
		return nil, fmt.Errorf("bdd: restore: dump length %d is not a whole number of node triples", len(dump))
	}
	n := len(dump) / 3
	e := newSized(nvars, slotsFor(n+2), maxCacheSlots)
	for i := 0; i < n; i++ {
		level, lo, hi := dump[3*i], Ref(dump[3*i+1]), Ref(dump[3*i+2])
		r := Ref(i + 2)
		if level < 0 || level >= int32(nvars) {
			return nil, fmt.Errorf("bdd: restore: node %d has level %d outside [0,%d)", r, level, nvars)
		}
		if lo < 0 || lo >= r || hi < 0 || hi >= r {
			return nil, fmt.Errorf("bdd: restore: node %d children (%d,%d) do not precede it", r, lo, hi)
		}
		if lo == hi {
			return nil, fmt.Errorf("bdd: restore: node %d is redundant (lo == hi == %d)", r, lo)
		}
		if e.nodes[lo].level <= level || e.nodes[hi].level <= level {
			return nil, fmt.Errorf("bdd: restore: node %d at level %d has a child at an equal or smaller level", r, level)
		}
		dup, slot := e.find(level, lo, hi)
		if dup != 0 {
			return nil, fmt.Errorf("bdd: restore: duplicate node (%d,%d,%d) at ref %d breaks hash consing", level, lo, hi, r)
		}
		e.nodes = append(e.nodes, node{level: level, lo: lo, hi: hi})
		e.unique[slot] = r
	}
	return e, nil
}

// CheckRef reports whether r is a valid Ref in this engine (a terminal
// or an existing decision node). Restore paths use it to validate refs
// recorded in checkpoint sections against the rebuilt node store.
func (e *Engine) CheckRef(r Ref) bool {
	return r >= 0 && int(r) < len(e.nodes)
}
