package flash

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/atoms"
	"repro/internal/bdd"
	"repro/internal/ce2d"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/obs"
	"repro/internal/pred"
)

// subspace is the engine-owning core of one prefix subspace (§3.4), the
// half the builder's and the System's workers share. It owns the
// subspace's one active predicate engine and everything tied to it:
// compiling matches against the universe, the one-way hybrid cutover,
// GC, the memory budget, counter history and the engine's metrics. What
// a worker keeps beside it (the builder's transformer and batcher; the
// System's checks, dispatcher and snapshot pins) reaches the core only
// through the role hooks, which GC and cutover — both cold — call.
//
//flashvet:allow bddref — universe is owned by eng, the subspace's single engine
type subspace struct {
	mu   sync.Mutex //flashvet:lockrank 20
	cfg  Config
	idx  int // global subspace index
	role role
	// eng is the active predicate engine. Exactly one of space/am backs
	// it: space.E in BDD mode (am nil), am in the hybrid atom regime
	// (space nil).
	eng      pred.Engine
	space    *hs.Space
	am       *atoms.Engine
	universe bdd.Ref
	// cutovers counts one-way atom→BDD conversions (0 or 1).
	cutovers int
	// base carries the monotone counters of the engines this subspace
	// retired (the cutover, and the builder's Compact), so PredicateOps,
	// CacheStats, GC totals and the bdd_* gauges never move backwards.
	base      engineCounterBase
	metrics   *obs.Registry  // the subspace's registry (nil = off)
	gcPauseNs *obs.Histogram // stop-the-world GC pause (nil = off)
}

// role is the state a worker keeps beside its core: its refs join the
// core's GC roots and are rewritten by every GC or cutover remap, and a
// cutover rebinds whatever holds the engine to the new one.
type role interface {
	roleRoots(yield func(bdd.Ref))
	remapRole(bdd.Remap)
	rebindRole(pred.Engine)
}

// worker is either role's worker, reached through its embedded core.
type worker interface{ core() *subspace }

func (c *subspace) core() *subspace { return c }

// start points the core of subspace idx at its first engine. A hybrid
// subspace starts on the atom engine when the header line fits it and
// the subspace's prefix is an interval set; every other subspace starts
// on BDD — over restored, an engine replayed from a checkpoint, when
// non-nil, else a fresh one.
func (c *subspace) start(cfg Config, idx int, restored *bdd.Engine, r role) {
	c.cfg, c.idx, c.role = cfg, idx, r
	if restored == nil && cfg.PredicateMode == PredicateHybrid && cfg.Layout.TotalBits() <= atoms.MaxVars {
		am := atoms.New(cfg.Layout.TotalBits())
		if uni, ok := atomCompile(am, cfg.Layout, cfg.subspaceDesc(idx)); ok {
			c.eng, c.am, c.universe = am, am, uni
			return
		}
	}
	c.setBDD(c.newBDD(restored))
}

// newBDD binds a BDD space to e (nil: a fresh engine) and mints the
// universe there by compiling the subspace's prefix; on a restored
// engine hash-consing finds the very ref the checkpoint recorded.
func (c *subspace) newBDD(e *bdd.Engine) (*hs.Space, bdd.Ref) {
	var space *hs.Space
	if e == nil {
		space = hs.NewSpace(c.cfg.Layout)
	} else {
		space = hs.NewSpaceOn(e, c.cfg.Layout)
	}
	return space, space.Compile(c.cfg.subspaceDesc(c.idx))
}

// setBDD makes space's engine the active one, universe minted on it.
func (c *subspace) setBDD(space *hs.Space, universe bdd.Ref) {
	c.eng, c.space, c.am, c.universe = space.E, space, nil, universe
}

// rotateLocked retires the active engine for space, folding its
// counters into the base first so exported totals never drop. Callers
// hold mu.
func (c *subspace) rotateLocked(space *hs.Space, universe bdd.Ref) {
	c.base.absorb(c.eng)
	c.setBDD(space, universe)
}

// engineCounterBase accumulates the monotone activity counters of
// retired engines.
type engineCounterBase struct {
	ops, cacheHits, cacheMisses, cacheEvictions uint64
	gcRuns, gcReclaimed                         uint64
}

// absorb folds an engine's counters into the base.
func (b *engineCounterBase) absorb(e pred.Engine) {
	b.ops += e.Ops()
	h, m := e.CacheStats()
	b.cacheHits += h
	b.cacheMisses += m
	b.cacheEvictions += e.CacheEvictions()
	b.gcRuns += e.GCRuns()
	b.gcReclaimed += e.ReclaimedNodes()
}

// countersLocked returns the subspace's engine counters: the active
// engine's plus the retired engines' base. Callers hold mu.
func (c *subspace) countersLocked() engineCounterBase {
	t := c.base
	t.absorb(c.eng)
	return t
}

// Roots enumerates every ref the subspace holds — the universe, the
// variable cache, then the role's — as the engine's GC root set.
func (c *subspace) Roots(yield func(bdd.Ref)) {
	yield(c.universe)
	if c.space != nil {
		c.space.Roots(yield)
	}
	c.role.roleRoots(yield)
}

// gcLocked runs a mark-and-sweep pass on the engine and rewrites every
// held ref through the remap. Callers hold mu.
func (c *subspace) gcLocked() bdd.GCStats {
	start := time.Now()
	remap, st := c.eng.GC(c.Roots)
	c.universe = remap.Apply(c.universe)
	if c.space != nil {
		c.space.RemapRefs(remap)
	}
	c.role.remapRole(remap)
	c.gcPauseNs.Observe(time.Since(start))
	return st
}

// maybeGCLocked enforces the memory budget after applied work: an
// engine grown past it runs one in-engine GC. The budget is a
// watermark, not a hard cap — when the live state itself exceeds it the
// engine stays at its live size. Callers hold mu.
func (c *subspace) maybeGCLocked() {
	if b := c.cfg.MemoryBudget; b > 0 && c.eng.NumNodes() > b {
		c.gcLocked()
	}
}

// compileLocked compiles a rule match on the active engine, intersected
// with the universe. In the atom regime a descriptor atoms cannot hold
// fires the one-way cutover to BDD first, then compiles there. Callers
// hold mu.
func (c *subspace) compileLocked(desc fib.MatchDesc) bdd.Ref {
	if c.am != nil {
		if r, ok := atomCompile(c.am, c.cfg.Layout, desc); ok {
			return c.am.And(r, c.universe)
		}
		c.cutoverLocked()
	}
	return c.space.E.And(c.space.Compile(desc), c.universe)
}

// compileScope compiles a descriptor on the active engine as is — not
// intersected with the universe, never cutting over: ok=false when the
// atom engine cannot hold it. Callers hold mu.
func (c *subspace) compileScope(desc fib.MatchDesc) (bdd.Ref, bool) {
	if c.am != nil {
		return atomCompile(c.am, c.cfg.Layout, desc)
	}
	return c.space.Compile(desc), true
}

// compileUpdates compiles one device's symbolic updates for this
// subspace (routes[i] belongs to ups[i]; nil routes everything here),
// dropping those whose match misses it: by route when the prefix alone
// told — no compile, no predicate operation — else by the compiled
// match coming back empty. Callers hold mu.
func (c *subspace) compileUpdates(ups []Update, routes []route) []fib.Update {
	var out []fib.Update
	for i, u := range ups {
		if routes != nil && routes[i].misses(c.idx) {
			continue
		}
		match := c.compileLocked(u.Rule.Desc)
		if match == bdd.False {
			continue
		}
		out = append(out, fib.Update{
			Op: u.Op,
			Rule: fib.Rule{
				ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action,
				Match: match, Desc: u.Rule.Desc,
			},
		})
	}
	return out
}

// compileBlocks compiles a block list for this subspace, dropping blocks
// left with no update here. A cutover firing mid-list invalidates the
// matches compiled before it — atom refs held only in this call's
// locals, invisible to the conversion remap — so the whole list is
// compiled again on the post-cutover engine; the cutover is one-way, so
// that happens at most once. Callers hold mu.
func (c *subspace) compileBlocks(blocks []DeviceBlock, routes routeTable) []fib.Block {
	for {
		cutovers := c.cutovers
		out := make([]fib.Block, 0, len(blocks))
		for i, db := range blocks {
			if ups := c.compileUpdates(db.Updates, routes.at(i)); len(ups) > 0 {
				out = append(out, fib.Block{Device: db.Device, Updates: ups})
			}
		}
		if c.cutovers == cutovers {
			return out
		}
	}
}

// cutoverLocked converts the subspace's whole atom state to a fresh BDD
// engine — the hybrid guard's one-way exit. Every live atom ref (the
// Roots set) is rebuilt as an OR of prefix cubes, the role's refs are
// rewritten through the conversion remap and its engine holders
// rebound, and the atom engine's counters fold into the base. A live
// update, a what-if or a checkpoint capture can fire it. Callers hold
// mu.
func (c *subspace) cutoverLocked() {
	space := hs.NewSpace(c.cfg.Layout)
	remap := atomConvert(c.am, space, c.Roots)
	c.role.remapRole(remap)
	c.role.rebindRole(space.E)
	c.rotateLocked(space, remap.Apply(c.universe))
	c.cutovers++
}

// atomCompile compiles a match descriptor on the atom engine,
// reporting ok=false when the descriptor leaves the atom regime: a
// non-prefix kind, a multi-field constraint, or an interval explosion
// (the engine's own compile bound included). A malformed descriptor
// panics like hs.Space.Compile would, keeping the two paths' failure
// behavior aligned.
func atomCompile(am *atoms.Engine, lay *hs.Layout, desc fib.MatchDesc) (bdd.Ref, bool) {
	if len(desc) > 1 {
		return bdd.False, false
	}
	for _, f := range desc {
		if f.Kind != fib.MatchPrefix {
			return bdd.False, false
		}
	}
	r, err := am.Compile(lay, desc)
	if err != nil {
		if errors.Is(err, deltanet.ErrIntervalExplosion) {
			return bdd.False, false
		}
		panic(fmt.Sprintf("flash: bad match descriptor %v: %v", desc, err))
	}
	return r, true
}

// atomConvert rebuilds every live atom ref on a fresh BDD space and
// returns the conversion Remap — the cutover's core. Yielded refs map
// to their BDD equivalents (an OR of prefix cubes per interval);
// everything un-yielded is dead, so a held-but-not-enumerated Ref
// panics in Apply exactly as it would after a GC pass. Terminals map to
// terminals because both engines pin False=0, True=1.
func atomConvert(am *atoms.Engine, space *hs.Space, roots func(func(bdd.Ref))) bdd.Remap {
	remap := make(bdd.Remap, am.NumRefs())
	for i := range remap {
		remap[i] = -1
	}
	remap[bdd.False], remap[bdd.True] = bdd.False, bdd.True
	roots(func(r bdd.Ref) {
		if remap[r] >= 0 {
			return
		}
		nr := bdd.False
		for _, iv := range am.Intervals(r) {
			nr = space.E.Or(nr, space.LineRange(iv.Lo, iv.Hi))
		}
		remap[r] = nr
	})
	return remap
}

// result converts one CE2D event into a Result whose witness is one
// header of the event's class. Callers hold mu.
func (c *subspace) result(epoch ce2d.Epoch, ev ce2d.Event) Result {
	r := Result{
		Subspace: c.idx,
		Epoch:    string(epoch),
		Check:    ev.Check,
		Verdict:  ev.Verdict,
		Loop:     ev.Loop,
	}
	if asg := c.eng.AnySat(ev.Class); asg != nil {
		r.Witness = headerFromAssignment(c.cfg.Layout, asg)
	}
	return r
}

// headerFromAssignment reconstructs per-field values from an engine
// assignment (both representations use variable i = line bit i).
func headerFromAssignment(lay *hs.Layout, asg []bool) []uint64 {
	out := make([]uint64, len(lay.Fields()))
	bit := 0
	for fi, f := range lay.Fields() {
		var v uint64
		for b := 0; b < f.Bits; b++ {
			v <<= 1
			if asg[bit] {
				v |= 1
			}
			bit++
		}
		out[fi] = v
	}
	return out
}

// instrument publishes the engine under reg, the subspace's registry:
// the GC pause histogram and sampled gauges. The engine is single-owner
// state guarded by mu, so the gauges are callbacks that take the lock
// at snapshot time rather than counters on the hot path (Table 3's
// "# Predicate Operations" and the §5.5 memory proxies). Every
// counter-like gauge includes the retired engines' base, so it never
// moves backwards across a cutover or Compact; bdd_nodes alone is an
// honest gauge of live nodes — the GC sawtooth is its signal.
func (c *subspace) instrument(reg *obs.Registry) {
	c.metrics = reg
	c.gcPauseNs = reg.Histogram("bdd_gc_pause_ns")
	reg.Func("bdd_nodes", c.sample(func() uint64 { return uint64(c.eng.NumNodes()) }))
	counter := func(name string, f func(engineCounterBase) uint64) {
		reg.Func(name, c.sample(func() uint64 { return f(c.countersLocked()) }))
	}
	counter("bdd_ops", func(t engineCounterBase) uint64 { return t.ops })
	counter("bdd_cache_hits", func(t engineCounterBase) uint64 { return t.cacheHits })
	counter("bdd_cache_misses", func(t engineCounterBase) uint64 { return t.cacheMisses })
	counter("bdd_cache_evictions", func(t engineCounterBase) uint64 { return t.cacheEvictions })
	counter("bdd_gc_runs", func(t engineCounterBase) uint64 { return t.gcRuns })
	counter("bdd_gc_reclaimed_nodes", func(t engineCounterBase) uint64 { return t.gcReclaimed })
}

// sample adapts f into a gauge callback that reads under mu.
func (c *subspace) sample(f func() uint64) func() int64 {
	return func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(f())
	}
}

// predicateModes reports each worker's live predicate representation,
// "atoms" or "bdd", by worker position.
func predicateModes[W worker](ws []W) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		c := w.core()
		c.mu.Lock()
		out[i] = "bdd"
		if c.am != nil {
			out[i] = "atoms"
		}
		c.mu.Unlock()
	}
	return out
}

// predicateCutovers totals the workers' atom-to-BDD cutovers.
func predicateCutovers[W worker](ws []W) int {
	total := 0
	for _, w := range ws {
		c := w.core()
		c.mu.Lock()
		total += c.cutovers
		c.mu.Unlock()
	}
	return total
}
