// Package flash is a Go implementation of Flash (SIGCOMM 2022): fast,
// consistent data plane verification for large-scale network settings.
//
// Flash combines two techniques:
//
//   - Fast inverse model transformation (Fast IMT / MR2): blocks of native
//     FIB rule updates are decomposed into atomic conflict-free
//     overwrites, aggregated by action and by predicate, and applied to an
//     equivalence-class inverse model in one cross product — orders of
//     magnitude faster than per-update processing under update storms.
//   - Consistent, efficient early detection (CE2D): updates are tagged
//     with epochs identifying the network state they were computed from;
//     per-epoch verifiers detect violations (unreachable requirements,
//     forwarding loops) from partial information, without waiting for
//     long-tail stragglers and without reporting transient errors.
//
// The two entry points mirror the paper's two deployment modes:
//
//   - ModelBuilder is the throughput-oriented offline/bootstrap path: it
//     partitions the header space into subspaces, runs one Fast IMT
//     transformer per subspace in parallel, and answers model queries
//     (Table 3 / Figure 6 of the paper).
//   - System is the online path: a CE2D dispatcher plus per-epoch,
//     per-subspace verifiers fed by epoch-tagged agent messages, over TCP
//     (package wire) or in process (Figure 1 of the paper).
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure.
package flash

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/ce2d"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/imt"
	"repro/internal/obs"
	"repro/internal/pat"
	"repro/internal/pred"
	"repro/internal/reach"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Re-exported core types, so that library users interact with a single
// import path.
type (
	// Action is a forwarding action (fib.Forward, fib.Drop, fib.None).
	Action = fib.Action
	// DeviceID identifies a device/switch.
	DeviceID = fib.DeviceID
	// Update is a native rule update in symbolic (wire) form.
	Update = wire.Update
	// Rule is a symbolic forwarding rule.
	Rule = wire.Rule
	// Msg is an epoch-tagged update block.
	Msg = wire.Msg
	// MatchDesc describes a rule match symbolically.
	MatchDesc = fib.MatchDesc
	// FieldMatch is one field constraint of a MatchDesc.
	FieldMatch = fib.FieldMatch
	// Graph is a network topology.
	Graph = topo.Graph
	// Layout declares the packet header fields.
	Layout = hs.Layout
	// Verdict is a reachability check outcome.
	Verdict = reach.Verdict
	// LoopResult is a loop check outcome.
	LoopResult = ce2d.LoopResult
)

// Re-exported constants.
const (
	Drop = fib.Drop
	None = fib.None

	VerdictUnknown     = reach.Unknown
	VerdictSatisfied   = reach.Satisfied
	VerdictUnsatisfied = reach.Unsatisfied

	LoopUnknown = ce2d.LoopUnknown
	LoopFound   = ce2d.LoopFound
	LoopFree    = ce2d.LoopFree
)

// Forward returns the action "forward to device d". Devices beyond the
// topology's node count denote delivery (hosts / external ports).
func Forward(d DeviceID) Action { return fib.Forward(d) }

// PredicateMode selects the per-subspace predicate representation
// strategy (see Config.PredicateMode).
type PredicateMode uint8

const (
	// PredicateBDD runs every subspace on its own BDD engine — the
	// default, and the only representation before the hybrid engine.
	PredicateBDD PredicateMode = iota
	// PredicateHybrid starts each subspace on a Delta-net-style atom
	// engine (sorted disjoint interval sets over the header line) while
	// every installed rule is a pure prefix interval, and converts the
	// subspace's whole state to a BDD engine — one way, never back — on
	// the first rule the atom representation cannot hold profitably
	// (ternary or range matches, multi-field constraints, interval
	// explosions). Prefix-only workloads stay in the atom regime where
	// interval merges beat BDD node walks (Delta-net, NSDI'17; the
	// paper's §5.1 observation); anything richer transparently lands on
	// the BDD path with identical verdicts.
	PredicateHybrid
)

// String returns the flag-friendly name ("bdd", "hybrid").
func (m PredicateMode) String() string {
	switch m {
	case PredicateBDD:
		return "bdd"
	case PredicateHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("PredicateMode(%d)", uint8(m))
}

// ParsePredicateMode parses a flag value produced by
// PredicateMode.String.
func ParsePredicateMode(s string) (PredicateMode, error) {
	switch s {
	case "bdd", "":
		return PredicateBDD, nil
	case "hybrid":
		return PredicateHybrid, nil
	}
	return PredicateBDD, fmt.Errorf("flash: unknown predicate mode %q (want bdd or hybrid)", s)
}

// CheckKind selects what a CheckSpec verifies.
type CheckKind uint8

// Check kinds.
const (
	// CheckReach verifies a path regular expression requirement. An
	// expression of the form "cover P" automatically becomes a coverage
	// check.
	CheckReach CheckKind = iota
	// CheckLoopFree verifies loop freedom.
	CheckLoopFree
	// CheckAnycast verifies that exactly one of Dests is reached.
	CheckAnycast
	// CheckMulticast verifies that all of Dests are reached.
	CheckMulticast
	// CheckCoverage verifies that every path matching Expr exists.
	CheckCoverage
)

// CheckSpec declares one verification requirement symbolically, so it can
// be compiled into every subspace verifier's own BDD engine.
type CheckSpec struct {
	Name string
	Kind CheckKind
	// Space restricts the packet space (nil = all packets).
	Space MatchDesc
	// Expr is the path regular expression (CheckReach); see package spec
	// for the grammar, e.g. "S .* [W|Y] .* D".
	Expr string
	// Sources are the entry devices by node name (CheckReach).
	Sources []string
	// Dest names the destination-owner device matched by the '>' hop and
	// required for delivery (CheckReach, CheckCoverage). Empty means any
	// device may deliver.
	Dest string
	// Dests name the destination group (CheckAnycast, CheckMulticast).
	Dests []string
	// ExitNodes names devices that can deliver packets while
	// unsynchronized (CheckLoopFree); nil means all (conservative).
	ExitNodes []string
}

// Result is one deterministic early-detection result.
type Result struct {
	Subspace int
	Epoch    string
	Check    string
	// Witness is one concrete header (field values in layout order) from
	// the equivalence class the result applies to.
	Witness []uint64
	Verdict Verdict    // CheckReach results
	Loop    LoopResult // CheckLoopFree results
}

func (r Result) String() string {
	out := fmt.Sprintf("[%s] check %q subspace %d witness %v: ", r.Epoch, r.Check, r.Subspace, r.Witness)
	if r.Loop != ce2d.LoopUnknown {
		return out + r.Loop.String()
	}
	return out + r.Verdict.String()
}

// Config configures a System or ModelBuilder.
//
// Config remains fully supported, but new code should prefer the
// functional options (see Option): a Config value can be passed directly
// to NewSystem/NewModelBuilder or bridged explicitly with WithConfig and
// refined with further options.
type Config struct {
	Topo   *Graph
	Layout *Layout
	// Subspaces partitions the destination field's space into this many
	// prefix subspaces, each verified by its own engine (§3.4). Must be
	// a power of two; 0 or 1 disables partitioning.
	Subspaces int
	// SubspaceField is the field partitioned (default "dst").
	SubspaceField string
	// SubspaceSet restricts a System to the listed global subspace
	// indices (out of Subspaces): only those workers are instantiated,
	// and Result.Subspace, fingerprints, and checkpoints keep the global
	// numbering, so disjoint sets running in separate processes compose
	// into exactly the answer one full-set System would give. Empty (the
	// default) instantiates every subspace. The shard coordinator
	// (internal/shard) uses this to split one verification problem
	// across replicas; ModelBuilder ignores it.
	SubspaceSet []int
	// Checks are the requirements verified by a System (ignored by
	// ModelBuilder).
	Checks []CheckSpec
	// PerUpdate forces per-update processing (the APKeep-style special
	// case; used by the ablation benchmarks).
	PerUpdate bool
	// PredicateMode selects the predicate representation. PredicateBDD
	// (the default) runs every subspace on a BDD engine; PredicateHybrid
	// starts each subspace on the Delta-net atom engine and cuts it over
	// to a BDD — one way — on the first rule atoms cannot hold. The
	// choice never changes models or verdicts, only which engine computes
	// them; the differential suite pins that equivalence.
	PredicateMode PredicateMode
	// Workers bounds the number of scheduler workers executing subspace
	// tasks. Subspaces are scheduled by work stealing: each subspace is a
	// serialized "home" whose pending blocks one worker drains at a time,
	// and idle workers steal queued subspaces from the busiest peer, so a
	// hot subspace no longer pins the rest of the epoch behind it.
	// 0 (the default) selects GOMAXPROCS; the effective count is capped
	// at the subspace count.
	Workers int
	// Batch bounds Fast IMT batching in native updates: ModelBuilder
	// workers coalesce consecutive same-device blocks into one MR2 pass,
	// and Pipeline gulps consecutive same-epoch messages into one
	// FeedBatch. <= 1 disables batching. Batches flush at epoch
	// boundaries and before every model query, and CE2D emits events only
	// when a device synchronizes an epoch, so batching never changes
	// verdicts — only amortizes work.
	Batch int
	// MemoryBudget bounds each subspace worker's live BDD node count.
	// After a worker applies a block (or feeds a message batch, for a
	// System), an engine grown past the budget runs an in-engine
	// mark-and-sweep GC. <= 0 (the default) disables automatic
	// reclamation. The budget is per worker, so total model memory
	// scales with the subspace count.
	MemoryBudget int
	// Succ optionally restricts the potential-path successor sets used by
	// reachability checks (e.g. to directed links, as in the paper's
	// Figure 3): a tighter set yields earlier detection, any superset of
	// the real forwarding stays consistent. Nil uses the topology's
	// undirected adjacency.
	Succ func(DeviceID) []DeviceID
	// Metrics optionally attaches the observability layer; every
	// subsystem publishes under its own sub-registry (see WithMetrics).
	// Nil keeps all hot paths at their zero-cost no-op default.
	Metrics *obs.Registry
	// Logger receives operational messages from Pipeline/Server
	// components (see WithLogger). Nil silences them.
	Logger *log.Logger
}

// subspaceDesc is the symbolic form of subspace i's universe predicate:
// nil (match-all) when partitioning is off, else the top log2(n) bits of
// the partition field equal to i. Both engines mint a subspace's
// universe by compiling it. It panics when the subspace count is not a
// power of two.
func (c *Config) subspaceDesc(i int) fib.MatchDesc {
	n := c.Subspaces
	if n <= 1 {
		return nil
	}
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	if 1<<uint(bits) != n {
		panic(fmt.Sprintf("flash: subspace count %d is not a power of two", n))
	}
	field := c.subspaceField()
	width := c.Layout.FieldBits(field)
	return fib.MatchDesc{{Field: field, Kind: fib.MatchPrefix, Value: uint64(i) << uint(width-bits), Len: bits}}
}

// subspaceField names the header field the space is partitioned on.
func (c *Config) subspaceField() string {
	if c.SubspaceField == "" {
		return "dst"
	}
	return c.SubspaceField
}

// route is the inclusive range of global subspace indices one update's
// match can intersect.
type route struct{ lo, hi int }

func (r route) misses(idx int) bool { return idx < r.lo || idx > r.hi }

// routeTable holds the routes of one dispatch, indexed by block (or
// message) and then by update; nil when partitioning is off.
type routeTable [][]route

// at returns block i's routes: nil, which routes every update to every
// worker, when there is no table.
func (t routeTable) at(i int) []route {
	if t == nil {
		return nil
	}
	return t[i]
}

// routeUpdates routes before compile: once per dispatch, on the caller's
// goroutine, it works out from each descriptor alone which subspaces
// the update can reach, so the other workers skip it without compiling
// it and ANDing it with their universe only to get False. Only a
// descriptor that is a single prefix on the partition field is routed
// (fib.SubspaceRange — the arithmetic the shard coordinator routes with
// between processes). Every other descriptor goes everywhere, as
// before: a ternary or multi-field rule is what fires an atom worker's
// cutover whether or not it intersects the subspace, so narrowing it
// would change which subspaces leave the atom regime. nil (no routing)
// when partitioning is off.
func (c *Config) routeUpdates(ups []Update) []route {
	n := c.numSubspaces()
	if n == 1 {
		return nil
	}
	field := c.subspaceField()
	width := c.Layout.FieldBits(field)
	out := make([]route, len(ups))
	for i, u := range ups {
		out[i] = route{0, n - 1}
		if len(u.Rule.Desc) != 1 {
			continue
		}
		if lo, hi, ok := fib.SubspaceRange(u.Rule.Desc, field, width, n); ok {
			out[i] = route{lo, hi}
		}
	}
	return out
}

// routeBlocks is routeUpdates over a block list.
func (c *Config) routeBlocks(blocks []DeviceBlock) routeTable {
	if c.numSubspaces() == 1 {
		return nil
	}
	out := make(routeTable, len(blocks))
	for i, db := range blocks {
		out[i] = c.routeUpdates(db.Updates)
	}
	return out
}

// subspaceSet resolves the global subspace indices a System
// instantiates: the validated, sorted, deduplicated SubspaceSet when
// non-empty, else all of [0, n).
func (c *Config) subspaceSet(n int) ([]int, error) {
	if len(c.SubspaceSet) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool, len(c.SubspaceSet))
	out := make([]int, 0, len(c.SubspaceSet))
	for _, i := range c.SubspaceSet {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("flash: subspace set index %d out of range [0,%d)", i, n)
		}
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

// numSubspaces is the global partition count (1 when partitioning is
// disabled) — the denominator SubspaceSet indices refer to.
func (c *Config) numSubspaces() int {
	if c.Subspaces <= 1 {
		return 1
	}
	return c.Subspaces
}

// ---- ModelBuilder: offline / bootstrap model construction ----

// ModelBuilder maintains the inverse model of a data plane with Fast IMT,
// partitioned across subspace workers that are executed by a
// work-stealing scheduler (subspace i is scheduler home i, so blocks
// for one subspace stay serialized and in order while idle workers
// steal queued subspaces from busy peers).
type ModelBuilder struct {
	cfg     Config
	workers []*mbWorker
	pool    *sched.Pool

	// dispatchMu serializes Submit/Wait barriers so concurrent
	// ApplyBlock/Flush callers cannot interleave their dispatches.
	dispatchMu sync.Mutex //flashvet:lockrank 10
}

// mbWorker is one builder subspace: the core plus the Fast IMT
// transformer (EC model + device tables) and, under WithBatch, its
// batcher.
type mbWorker struct {
	subspace
	transform *imt.Transformer
	batch     *imt.Batcher // nil unless cfg.Batch > 1
}

func (w *mbWorker) roleRoots(yield func(bdd.Ref)) {
	w.transform.Roots(yield)
	if w.batch != nil {
		w.batch.Roots(yield)
	}
}

func (w *mbWorker) remapRole(m bdd.Remap) {
	w.transform.RemapRefs(m)
	if w.batch != nil {
		w.batch.RemapRefs(m)
	}
}

func (w *mbWorker) rebindRole(e pred.Engine) { w.transform.E = e }

// NewModelBuilder creates a builder from the given options. A bare
// Config value is accepted as an option (the original struct API), so
// both styles work:
//
//	NewModelBuilder(Config{Topo: g, Layout: l, Subspaces: 4})
//	NewModelBuilder(WithTopo(g), WithLayout(l), WithSubspaces(4, ""))
func NewModelBuilder(opts ...Option) *ModelBuilder {
	cfg := buildConfig(opts)
	b := &ModelBuilder{cfg: cfg}
	for i := 0; i < cfg.numSubspaces(); i++ {
		w := &mbWorker{}
		w.start(cfg, i, nil, w)
		w.transform = imt.NewTransformer(w.eng, pat.NewStore(), w.universe)
		w.transform.PerUpdate = cfg.PerUpdate
		w.transform.Tag = "mb/subspace" + strconv.Itoa(i)
		reg := cfg.Metrics.Sub("imt").Sub("subspace" + strconv.Itoa(i))
		if cfg.Batch > 1 {
			w.batch = imt.NewBatcher(w.transform, cfg.Batch)
			w.batch.Instrument(reg)
		}
		w.instrument(reg)
		w.transform.Instrument(reg)
		reg.Func("pat_nodes", w.sample(func() uint64 { return uint64(w.transform.Store.NumNodes()) }))
		b.workers = append(b.workers, w)
	}
	b.pool = sched.NewPool(cfg.Workers, len(b.workers))
	b.pool.Instrument(cfg.Metrics.Sub("sched"))
	return b
}

// NumSubspaces reports the number of parallel subspace workers.
func (b *ModelBuilder) NumSubspaces() int { return len(b.workers) }

// PredicateModes reports each subspace worker's live predicate
// representation, "atoms" or "bdd", indexed by worker position. Under
// PredicateBDD every entry is "bdd"; under PredicateHybrid an entry
// flips from "atoms" to "bdd" permanently when the subspace's cutover
// guard fires (see WithPredicateMode).
func (b *ModelBuilder) PredicateModes() []string { return predicateModes(b.workers) }

// PredicateCutovers reports the total number of atom-to-BDD cutovers
// that have fired across subspace workers. Each subspace converts at
// most once, so the count is bounded by the subspace count.
func (b *ModelBuilder) PredicateCutovers() int { return predicateCutovers(b.workers) }

// ApplyBlock feeds one batch of per-device symbolic update blocks to all
// subspace workers via the work-stealing scheduler. Every rule must
// carry a symbolic match descriptor; rules whose match does not
// intersect a worker's subspace are skipped there. When the builder was
// configured WithBatch, blocks are buffered per worker and flushed as
// bounded coalesced batches; call Flush (or any model query) to force
// pending work through.
func (b *ModelBuilder) ApplyBlock(blocks []DeviceBlock) error {
	b.dispatchMu.Lock()
	defer b.dispatchMu.Unlock()
	errs := make([]error, len(b.workers))
	routes := b.cfg.routeBlocks(blocks)
	for i, w := range b.workers {
		i, w := i, w
		b.pool.Submit(i, func() { errs[i] = w.apply(blocks, routes) })
	}
	b.pool.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush forces every worker's pending batched updates through the Fast
// IMT pipeline. It is a no-op when batching is disabled; every model
// query flushes implicitly, so explicit calls are only needed to bound
// result latency between queries.
func (b *ModelBuilder) Flush() error {
	b.dispatchMu.Lock()
	defer b.dispatchMu.Unlock()
	return b.flushLocked()
}

func (b *ModelBuilder) flushLocked() error {
	if b.cfg.Batch <= 1 {
		return nil
	}
	errs := make([]error, len(b.workers))
	for i, w := range b.workers {
		i, w := i, w
		b.pool.Submit(i, func() { errs[i] = w.flush() })
	}
	b.pool.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *mbWorker) flush() (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flash: subspace worker panic during flush: %v", r)
		}
	}()
	if w.batch == nil {
		return nil
	}
	if err := w.batch.Flush(); err != nil {
		return err
	}
	w.maybeGCLocked()
	return nil
}

// DeviceBlock is a block of symbolic updates for one device.
type DeviceBlock struct {
	Device  DeviceID
	Updates []Update
}

func (w *mbWorker) apply(blocks []DeviceBlock, routes routeTable) (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// The offline path converts a transformer panic into an error rather
	// than killing the whole build fan-out.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flash: subspace worker panic: %v", r)
		}
	}()
	compiled := w.compileBlocks(blocks, routes)
	if w.batch != nil {
		err = w.batch.Add(compiled)
	} else {
		err = w.transform.ApplyBlock(compiled)
	}
	if err != nil {
		return err
	}
	w.maybeGCLocked()
	return nil
}

// GC forces an immediate mark-and-sweep pass on every subspace engine,
// returning the total node count reclaimed. Unlike Compact it keeps the
// engines (and their counter history) and releases only unreachable
// nodes — it is the reclamation the MemoryBudget watermark triggers
// automatically. Pending batches are flushed first.
func (b *ModelBuilder) GC() (int, error) {
	b.dispatchMu.Lock()
	defer b.dispatchMu.Unlock()
	if err := b.flushLocked(); err != nil {
		return 0, err
	}
	total := 0
	for _, w := range b.workers {
		w.mu.Lock()
		st := w.gcLocked()
		w.mu.Unlock()
		total += st.Reclaimed
	}
	return total, nil
}

// Compact rebuilds every subspace worker onto a fresh BDD engine and a
// fresh PAT store from the symbolic descriptors of its installed rules,
// re-running the whole Fast IMT pipeline. It never runs automatically
// (the MemoryBudget watermark only collects); it is the one way to
// reclaim PAT nodes, which no GC reaches. Every installed rule must
// carry a symbolic descriptor. Counter history survives rotation via
// the per-worker base (PredicateOps/CacheStats stay monotone).
func (b *ModelBuilder) Compact() error {
	b.dispatchMu.Lock()
	defer b.dispatchMu.Unlock()
	if err := b.flushLocked(); err != nil {
		return err
	}
	for _, w := range b.workers {
		if err := w.compact(); err != nil {
			return err
		}
	}
	return nil
}

func (w *mbWorker) compact() (err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flash: subspace worker panic during compact: %v", r)
		}
	}()
	// An atom-mode worker runs a GC pass instead: atoms hold exactly the
	// live interval sets after collection, so a rotation has nothing left
	// to deduplicate.
	if w.am != nil {
		w.gcLocked()
		return nil
	}
	space, universe := w.newBDD(nil)
	tr := imt.NewTransformer(space.E, pat.NewStore(), universe)
	tr.PerUpdate = w.cfg.PerUpdate
	tr.Tag = w.transform.Tag
	tr.Instrument(w.metrics) // rotation keeps the same metric handles
	var blocks []fib.Block
	for _, dev := range w.transform.Devices() {
		blk := fib.Block{Device: dev}
		for _, r := range w.transform.Table(dev).Rules() {
			if r.Desc == nil {
				return fmt.Errorf("flash: device %d rule %d has no descriptor; cannot compact", dev, r.ID)
			}
			nr := r
			nr.Match = space.E.And(space.Compile(r.Desc), universe)
			if nr.Match == bdd.False {
				continue
			}
			blk.Updates = append(blk.Updates, fib.Update{Op: fib.Insert, Rule: nr})
		}
		if len(blk.Updates) > 0 {
			blocks = append(blocks, blk)
		}
	}
	if err := tr.ApplyBlock(blocks); err != nil {
		return err
	}
	w.rotateLocked(space, universe)
	w.transform = tr
	if w.batch != nil {
		// The batcher is empty here (Compact flushes first); rebind it to
		// the rotated transformer.
		w.batch = imt.NewBatcher(tr, w.batch.Max)
		w.batch.Instrument(w.metrics)
	}
	return nil
}

// ActionAt returns the forwarding action device dev applies to the given
// header, answering point queries against the inverse model. Pending
// batched updates are flushed first.
func (b *ModelBuilder) ActionAt(dev DeviceID, header []uint64) (Action, error) {
	if err := b.Flush(); err != nil {
		return None, err
	}
	for _, w := range b.workers {
		w.mu.Lock()
		asg := b.cfg.Layout.Assignment(header)
		if !w.eng.Eval(w.universe, asg) {
			w.mu.Unlock()
			continue
		}
		vec, ok := w.transform.Model().Lookup(w.eng, asg)
		if !ok {
			w.mu.Unlock()
			return None, fmt.Errorf("flash: header %v not covered", header)
		}
		act := w.transform.Store.Get(vec, dev)
		w.mu.Unlock()
		return act, nil
	}
	return None, fmt.Errorf("flash: header %v outside every subspace", header)
}

// ---- System: online CE2D verification ----

// System is the online Flash deployment of Figure 1: per-subspace workers
// each running a CE2D dispatcher that manages per-epoch verifiers.
//
// A worker that panics while applying a message is quarantined
// ("poisoned"): its subspace stops verifying, the panic is recovered and
// counted, and all other subspaces keep running. PoisonedSubspaces and
// Health expose the degradation.
type System struct {
	cfg     Config
	workers []*sysWorker
	pool    *sched.Pool

	// bus fans verdict flips out to SubscribeVerdicts subscribers; it is
	// fed at the FeedBatch merge point (verdictbus.go).
	bus *verdictBus
	// snapCount tracks live (unreleased) snapshots (snapshot.go).
	snapCount atomic.Int64

	// dispatchMu serializes scheduler barriers across concurrent Feed
	// callers (the wire server feeds from multiple connections).
	dispatchMu sync.Mutex //flashvet:lockrank 10

	poisonMu     sync.Mutex
	poisoned     map[int]string // subspace index -> panic cause
	workerPanics *obs.Counter

	// feedHook, when set (tests only), runs inside the subspace worker's
	// scheduler task before each message is applied. A panic in the hook
	// exercises the worker-quarantine path deterministically; the hook
	// also serves as the per-device sequence witness for the scheduler
	// property tests (it observes the exact per-subspace message order).
	feedHook func(subspace int, m Msg)
}

// sysWorker is one System subspace: the core plus the compiled checks,
// the CE2D dispatcher with its per-epoch verifiers, and the snapshot
// pins.
type sysWorker struct {
	subspace
	// checks is the worker-owned compiled check set; the verifier
	// factory reads it (not a captured copy) so verifiers created after
	// a GC or cutover see the rewritten spaces.
	checks []ce2d.Check
	disp   *ce2d.Dispatcher
	// snaps pins live Snapshot captures: each holds a cloned transformer
	// whose refs must survive GC until the snapshot is released.
	snaps  []*snapSub
	feedNs *obs.Histogram // per-message verification latency (nil = off)
}

// roleRoots yields each compiled check space, pinned snapshot captures,
// and — via the dispatcher — the queued messages and every live
// per-epoch verifier.
func (w *sysWorker) roleRoots(yield func(bdd.Ref)) {
	for i := range w.checks {
		yield(w.checks[i].Space)
	}
	for _, ss := range w.snaps {
		ss.trans.Roots(yield)
	}
	w.disp.Roots(yield)
}

func (w *sysWorker) remapRole(m bdd.Remap) {
	for i := range w.checks {
		w.checks[i].Space = m.Apply(w.checks[i].Space)
	}
	for _, ss := range w.snaps {
		ss.trans.RemapRefs(m)
	}
	w.disp.RemapRefs(m)
}

func (w *sysWorker) rebindRole(e pred.Engine) {
	for _, ss := range w.snaps {
		ss.trans.E = e
	}
	w.disp.Rebind(e)
}

// newSysWorker builds System subspace idx. restored, when non-nil, is an
// engine replayed from a checkpoint's node dump: the subspace runs on
// BDD over it and the caller restores the dispatcher (restore).
// Otherwise the subspace starts fresh in the configured predicate mode.
func newSysWorker(cfg Config, idx int, restored *bdd.Engine) (*sysWorker, error) {
	w := &sysWorker{}
	w.start(cfg, idx, restored, w)
	checks, ok, err := compileChecks(cfg, w.compileScope)
	if err == nil && !ok {
		// A check space atoms cannot hold (a ternary ACL scope, say) makes
		// this subspace start on BDD directly rather than cut over on its
		// first message.
		w.setBDD(w.newBDD(nil))
		checks, _, err = compileChecks(cfg, w.compileScope)
	}
	if err != nil {
		return nil, err
	}
	w.checks = checks
	w.disp = ce2d.NewDispatcher(w.newVerifier)
	// Per-subspace observability: the dispatcher and the engine publish
	// under ce2d/subspace<i>, and every per-epoch verifier's Fast IMT
	// transformer shares the nested imt sub-registry, so transform
	// timings accumulate across epochs. All of it is nil (and therefore
	// free) without WithMetrics.
	w.instrument(cfg.Metrics.Sub("ce2d").Sub("subspace" + strconv.Itoa(idx)))
	w.disp.Instrument(w.metrics)
	w.feedNs = w.metrics.Histogram("feed_ns")
	return w, nil
}

// verifierConfig is the CE2D configuration of a verifier on this
// subspace. It reads the engine, universe and checks from the worker at
// call time: a GC or cutover rewrites them, and a verifier created for a
// later epoch must start from the current refs.
func (w *sysWorker) verifierConfig() ce2d.Config {
	return ce2d.Config{
		Topo:     w.cfg.Topo,
		Engine:   w.eng,
		Universe: w.universe,
		Checks:   w.checks,
		Succ:     w.cfg.Succ,
	}
}

// newVerifier is the dispatcher's per-epoch verifier factory.
func (w *sysWorker) newVerifier(ce2d.Epoch) *ce2d.Verifier {
	v := ce2d.NewVerifier(w.verifierConfig())
	v.Transformer().Tag = "ce2d/subspace" + strconv.Itoa(w.idx)
	v.Transformer().Instrument(w.metrics.Sub("imt"))
	return v
}

// NewSystem builds a System from the given options; checks are compiled
// per subspace. As with NewModelBuilder, a bare Config value is accepted
// as an option, so the original NewSystem(Config{...}) call style keeps
// working.
func NewSystem(opts ...Option) (*System, error) {
	cfg := buildConfig(opts)
	return newSystem(cfg, func(i int) (*sysWorker, error) { return newSysWorker(cfg, i, nil) })
}

// newSystem assembles a System from one worker per subspace of the
// configured set, each built by newWorker.
func newSystem(cfg Config, newWorker func(idx int) (*sysWorker, error)) (*System, error) {
	set, err := cfg.subspaceSet(cfg.numSubspaces())
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, poisoned: make(map[int]string), bus: newVerdictBus(cfg.Metrics)}
	s.workerPanics = cfg.Metrics.Sub("ce2d").Counter("worker_panics")
	for _, i := range set {
		w, err := newWorker(i)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	s.pool = sched.NewPool(cfg.Workers, len(s.workers))
	s.pool.Instrument(cfg.Metrics.Sub("sched"))
	return s, nil
}

// Checks returns the verification requirements the system was built
// with (a copy; mutating it does not affect the running verifiers).
func (s *System) Checks() []CheckSpec {
	return append([]CheckSpec(nil), s.cfg.Checks...)
}

// Metrics returns the observability registry the system was built with
// (nil when observability is disabled).
func (s *System) Metrics() *obs.Registry { return s.cfg.Metrics }

// Logger returns the configured logger (nil when silenced).
func (s *System) Logger() *log.Logger { return s.cfg.Logger }

// PredicateModes reports each subspace worker's live predicate
// representation, "atoms" or "bdd", indexed by worker position (see
// SubspaceIndices for the global subspace index each position owns).
// Under PredicateBDD every entry is "bdd"; under PredicateHybrid an
// entry flips from "atoms" to "bdd" permanently when the subspace's
// cutover guard fires (see WithPredicateMode).
func (s *System) PredicateModes() []string { return predicateModes(s.workers) }

// PredicateCutovers reports the total number of atom-to-BDD cutovers
// that have fired across subspace workers. Each subspace converts at
// most once, so the count is bounded by the subspace count.
func (s *System) PredicateCutovers() int { return predicateCutovers(s.workers) }

// compileChecks builds the worker-owned check set, compiling each check
// scope through the supplied predicate compiler. compile reports
// ok=false when the scope cannot live on the chosen representation (the
// atom path's pure-prefix guard); compileChecks then stops and returns
// compiled=false so the caller can fall back to the BDD path. The BDD
// compiler never fails.
func compileChecks(cfg Config, compile func(MatchDesc) (bdd.Ref, bool)) ([]ce2d.Check, bool, error) {
	var out []ce2d.Check
	for _, cs := range cfg.Checks {
		sp, ok := compile(cs.Space)
		if !ok {
			return nil, false, nil
		}
		c := ce2d.Check{Name: cs.Name, Space: sp}
		switch cs.Kind {
		case CheckReach, CheckAnycast, CheckMulticast, CheckCoverage:
			switch cs.Kind {
			case CheckReach:
				c.Kind = ce2d.CheckReach
			case CheckAnycast:
				c.Kind = ce2d.CheckAnycast
			case CheckMulticast:
				c.Kind = ce2d.CheckMulticast
			case CheckCoverage:
				c.Kind = ce2d.CheckCoverage
			}
			expr, err := spec.Parse(cs.Expr)
			if err != nil {
				return nil, false, fmt.Errorf("flash: check %q: %w", cs.Name, err)
			}
			c.Expr = expr
			for _, name := range cs.Sources {
				id, ok := cfg.Topo.ByName(name)
				if !ok {
					return nil, false, fmt.Errorf("flash: check %q: unknown source %q: %w", cs.Name, name, ErrUnknownDevice)
				}
				c.Sources = append(c.Sources, id)
			}
			for _, name := range cs.Dests {
				id, ok := cfg.Topo.ByName(name)
				if !ok {
					return nil, false, fmt.Errorf("flash: check %q: unknown dest %q: %w", cs.Name, name, ErrUnknownDevice)
				}
				c.Dests = append(c.Dests, id)
			}
			if (cs.Kind == CheckAnycast || cs.Kind == CheckMulticast) && len(c.Dests) == 0 {
				return nil, false, fmt.Errorf("flash: check %q: %v needs Dests", cs.Name, cs.Kind)
			}
			if cs.Dest != "" {
				dst, ok := cfg.Topo.ByName(cs.Dest)
				if !ok {
					return nil, false, fmt.Errorf("flash: check %q: unknown dest %q: %w", cs.Name, cs.Dest, ErrUnknownDevice)
				}
				c.IsDest = func(n topo.NodeID) bool { return n == dst }
			} else {
				c.IsDest = func(topo.NodeID) bool { return true }
			}
		case CheckLoopFree:
			c.Kind = ce2d.CheckLoopFree
			if len(cs.ExitNodes) > 0 {
				exits := make(map[topo.NodeID]bool, len(cs.ExitNodes))
				for _, name := range cs.ExitNodes {
					id, ok := cfg.Topo.ByName(name)
					if !ok {
						return nil, false, fmt.Errorf("flash: check %q: unknown exit node %q: %w", cs.Name, name, ErrUnknownDevice)
					}
					exits[id] = true
				}
				c.CanExit = func(n topo.NodeID) bool { return exits[n] }
			}
		default:
			return nil, false, fmt.Errorf("flash: check %q: unknown kind %d", cs.Name, cs.Kind)
		}
		out = append(out, c)
	}
	return out, true, nil
}

// Feed delivers one epoch-tagged agent message to every subspace worker
// (in parallel) and returns the deterministic results it triggered. It
// is FeedContext with a background context.
//
// Deprecated: use FeedContext so ingestion participates in the caller's
// cancellation tree. Feed remains for compatibility and is equivalent to
// FeedContext(context.Background(), m).
//
//flashvet:allow ctxfeed — compatibility wrapper; this is where context-free callers get their root context
func (s *System) Feed(m Msg) ([]Result, error) {
	return s.FeedContext(context.Background(), m)
}

// FeedContext is Feed with cancellation: if ctx is canceled before a
// subspace worker picks the message up, that worker returns ctx.Err()
// and the message is not applied there. Cancellation is checked at
// worker boundaries (a worker that has started applying a block always
// finishes it, keeping the per-subspace models consistent).
//
// A worker that panics is quarantined: the panic is recovered, counted
// under ce2d/worker_panics, and the subspace is skipped by every later
// Feed. Results from healthy subspaces are still returned; only when
// every subspace is poisoned does Feed fail (with ErrSubspacePoisoned).
func (s *System) FeedContext(ctx context.Context, m Msg) ([]Result, error) {
	return s.FeedBatch(ctx, []Msg{m})
}

// FeedBatch delivers several epoch-tagged messages in one scheduler
// dispatch: every subspace worker applies the whole slice in order
// before the epoch barrier releases, amortizing the scheduling and
// lock-acquisition cost of an update storm across the batch. It is
// semantically identical to calling FeedContext once per message and
// concatenating the results (CE2D emits events only when a device
// synchronizes an epoch, and per-device order within the batch is
// preserved, so the verdict stream cannot differ); the Pipeline uses it
// to gulp consecutive same-epoch messages under WithBatch.
func (s *System) FeedBatch(ctx context.Context, msgs []Msg) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(msgs) == 0 {
		return nil, nil
	}
	// The lock is held through merge and publish (not just the scheduler
	// barrier) so concurrent FeedBatch callers publish to the verdict bus
	// in dispatch order — a later batch's flip can never be overwritten
	// by an earlier batch's stale verdict.
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	results := make([][][]Result, len(s.workers)) // [worker][msg index][...]
	errs := make([]error, len(s.workers))
	var routes routeTable // by message
	if s.cfg.numSubspaces() > 1 {
		routes = make(routeTable, len(msgs))
		for mi, m := range msgs {
			routes[mi] = s.cfg.routeUpdates(m.Updates)
		}
	}
	live := 0
	for i, w := range s.workers {
		// Poisoning is keyed by the global subspace index (w.idx), which
		// equals the slice position only for full-set systems; the result
		// and error slots stay slice-positional.
		if s.isPoisoned(w.idx) {
			continue
		}
		live++
		i, w := i, w
		s.pool.Submit(i, func() {
			defer func() {
				if r := recover(); r != nil {
					s.poison(w.idx, fmt.Sprint(r))
					results[i], errs[i] = nil, nil
				}
			}()
			var hook func(Msg)
			if s.feedHook != nil {
				hook = func(m Msg) { s.feedHook(w.idx, m) }
			}
			results[i], errs[i] = w.feedAll(ctx, msgs, routes, hook)
		})
	}
	s.pool.Wait()
	if live == 0 {
		return nil, fmt.Errorf("flash: all %d subspaces are quarantined: %w", len(s.workers), ErrSubspacePoisoned)
	}
	// Merge in (message, subspace) order — exactly the concatenation a
	// sequential Feed loop would produce.
	var out []Result
	for mi := range msgs {
		for i := range s.workers {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if mi < len(results[i]) {
				out = append(out, results[i][mi]...)
			}
		}
	}
	// Workers are iterated in subspace order, so out is already sorted by
	// (message index, subspace) — the same order a sequential Feed loop
	// (which sorts each message's results by subspace) would emit.
	//
	// This merge point is the single place live results materialize, so
	// it is also where verdict-change subscriptions are fed (what-if
	// results never pass through here and never publish).
	s.bus.publish(out)
	return out, nil
}

// isPoisoned reports whether a subspace worker has been quarantined.
func (s *System) isPoisoned(i int) bool {
	s.poisonMu.Lock()
	defer s.poisonMu.Unlock()
	_, ok := s.poisoned[i]
	return ok
}

// poison quarantines a subspace worker after a recovered panic.
func (s *System) poison(i int, cause string) {
	s.poisonMu.Lock()
	first := s.poisoned[i] == ""
	if first {
		s.poisoned[i] = cause
	}
	s.poisonMu.Unlock()
	if first {
		s.workerPanics.Inc()
		if log := s.cfg.Logger; log != nil {
			log.Printf("flash: subspace %d worker panic; quarantined: %s", i, cause)
		}
	}
}

// PoisonedSubspaces returns the quarantined subspace indices, sorted.
func (s *System) PoisonedSubspaces() []int {
	s.poisonMu.Lock()
	defer s.poisonMu.Unlock()
	out := make([]int, 0, len(s.poisoned))
	for i := range s.poisoned {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Health reports the system's degradation state: degraded when any
// subspace worker has been quarantined after a panic.
func (s *System) Health() Health {
	s.poisonMu.Lock()
	defer s.poisonMu.Unlock()
	var h Health
	for i := range s.poisoned {
		h.Degraded = true
		h.Reasons = append(h.Reasons, fmt.Sprintf("subspace %d quarantined: %s", i, s.poisoned[i]))
	}
	sort.Strings(h.Reasons)
	return h
}

// ModelFingerprint returns a deterministic digest of the per-device EC
// model held by the given epoch's verifier across all subspaces: per
// subspace, the EC count and every device table's rules (identity,
// priority, action and symbolic descriptor). Two runs that consumed the
// same messages exactly once, in order, produce equal fingerprints —
// the chaos tests use this to prove at-least-once replay with dedup
// leaves the model untouched by duplicates.
func (s *System) ModelFingerprint(epoch string) (string, error) {
	parts, err := s.SubspaceFingerprints(epoch)
	if err != nil {
		return "", err
	}
	return ComposeFingerprints(parts), nil
}

// SubspaceFingerprints returns the per-subspace digest of the epoch's
// EC model, keyed by global subspace index; subspaces with no verifier
// for the epoch are absent. The shard coordinator merges the maps of
// disjoint replicas and composes them (ComposeFingerprints) into the
// fingerprint a single full-set System would report.
func (s *System) SubspaceFingerprints(epoch string) (map[int]string, error) {
	out := make(map[int]string)
	for _, w := range s.workers {
		w.mu.Lock()
		d, ok := w.fingerprintLocked(epoch)
		w.mu.Unlock()
		if ok {
			out[w.idx] = d
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("flash: no verifier for epoch %q in any subspace", epoch)
	}
	return out, nil
}

// ComposeFingerprints folds per-subspace digests (as returned by
// SubspaceFingerprints, possibly merged across shards) into one model
// fingerprint, deterministically: digests are absorbed in ascending
// global subspace index order.
func ComposeFingerprints(parts map[int]string) string {
	idxs := make([]int, 0, len(parts))
	for i := range parts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	h := sha256.New()
	var b [8]byte
	for _, i := range idxs {
		binary.BigEndian.PutUint64(b[:], uint64(i))
		h.Write(b[:])
		h.Write([]byte(parts[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintLocked digests this subspace's EC model for the epoch:
// the EC count and every device table's rules (identity, priority,
// action and symbolic descriptor). Callers hold w.mu.
func (w *sysWorker) fingerprintLocked(epoch string) (string, bool) {
	v, ok := w.disp.Verifier(ce2d.Epoch(epoch))
	if !ok {
		return "", false
	}
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(v string) {
		num(uint64(len(v)))
		h.Write([]byte(v))
	}
	tr := v.Transformer()
	num(uint64(w.idx))
	num(uint64(tr.Model().Len()))
	devs := tr.Devices()
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, dev := range devs {
		num(uint64(dev))
		for _, r := range tr.Table(dev).Rules() {
			num(uint64(r.ID))
			num(uint64(r.Pri))
			num(uint64(r.Action))
			num(uint64(len(r.Desc)))
			for _, f := range r.Desc {
				str(f.Field)
				num(uint64(f.Kind))
				num(f.Value)
				num(uint64(f.Len))
				num(f.Mask)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// SubspaceIndices returns the global subspace indices this System
// instantiates, ascending — all of [0, Subspaces) unless the system
// was built with WithSubspaceSet.
func (s *System) SubspaceIndices() []int {
	out := make([]int, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.idx
	}
	return out
}

// feedAll applies a batch of messages in order under one lock
// acquisition. The returned slice is indexed by message position; a
// context cancellation mid-batch returns the error with the results of
// the messages already applied (a message that has started applying
// always finishes, keeping the per-subspace model consistent). routes
// holds each message's update routes (routeUpdates). hook, when non-nil,
// runs before each message (test seam).
func (w *sysWorker) feedAll(ctx context.Context, msgs []Msg, routes routeTable, hook func(Msg)) ([][]Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][]Result, 0, len(msgs))
	for mi, m := range msgs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if hook != nil {
			hook(m)
		}
		rs, err := w.feedOne(m, routes.at(mi))
		if err != nil {
			return out, err
		}
		out = append(out, rs)
	}
	// Watermark check once per batch: results for this batch are already
	// materialized (witnesses extracted), so collecting here cannot
	// invalidate anything the caller sees.
	w.maybeGCLocked()
	return out, nil
}

// feedOne applies one message, whose envelope every subspace must see
// (CE2D tracks epochs per device) even when routes leaves it no update
// here; callers hold w.mu.
func (w *sysWorker) feedOne(m Msg, routes []route) ([]Result, error) {
	var start time.Time
	if w.feedNs != nil {
		start = time.Now()
	}
	var ups []fib.Update
	if blocks := w.compileBlocks([]DeviceBlock{{Device: m.Device, Updates: m.Updates}}, routeTable{routes}); len(blocks) > 0 {
		ups = blocks[0].Updates
	}
	evs, err := w.disp.Receive(ce2d.Msg{Device: m.Device, Epoch: ce2d.Epoch(m.Epoch), Updates: ups})
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(evs))
	for _, te := range evs {
		out = append(out, w.result(te.Epoch, te.Event))
	}
	if w.feedNs != nil {
		w.feedNs.Observe(time.Since(start))
	}
	return out, nil
}
