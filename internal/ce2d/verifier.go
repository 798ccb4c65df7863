package ce2d

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bdd"
	"repro/internal/fib"
	"repro/internal/imt"
	"repro/internal/pat"
	"repro/internal/pred"
	"repro/internal/reach"
	"repro/internal/spec"
	"repro/internal/topo"
)

// CheckKind discriminates the verification checks a verifier runs.
type CheckKind uint8

// Check kinds.
const (
	// CheckReach verifies a path-regular-expression requirement.
	CheckReach CheckKind = iota
	// CheckLoopFree verifies all-pair loop freedom.
	CheckLoopFree
	// CheckAnycast verifies "exactly one of Dests reachable" (App. D.2).
	CheckAnycast
	// CheckMulticast verifies "all of Dests reachable" (App. D.2).
	CheckMulticast
	// CheckCoverage verifies "all matching paths exist" (App. D.2; also
	// selected automatically for a CheckReach whose expression is
	// "cover P").
	CheckCoverage
)

// Check is one verification requirement bound to a packet space.
//
//flashvet:allow bddref — Space is expressed in the engine of the Verifier the check is registered with (Config.Engine)
//flashvet:allow gcroot — registered checks' Space refs are enumerated by the owning Verifier's Roots (per-check classState)
type Check struct {
	Name    string
	Kind    CheckKind
	Space   bdd.Ref                // packet space H (bdd.True = everything)
	Expr    *spec.Expr             // path checks
	Sources []topo.NodeID          // path checks
	IsDest  func(topo.NodeID) bool // CheckReach/CheckCoverage; may be nil
	Dests   []topo.NodeID          // CheckAnycast/CheckMulticast
	CanExit func(topo.NodeID) bool // CheckLoopFree only; may be nil (= any)
}

// Event is a deterministic early-detection result for one check on one
// equivalence class of the packet space.
//
//flashvet:allow bddref — Class is minted by the emitting Verifier's engine; consumers treat it as opaque
//flashvet:allow gcroot — buffered events' Class refs are enumerated by the emitting Verifier's Roots (v.events)
type Event struct {
	Check string
	Class bdd.Ref // the class of headers the result applies to
	// Exactly one of the two results is meaningful, per the check kind.
	Verdict reach.Verdict
	Loop    LoopResult
}

// Config configures an epoch verifier.
//
//flashvet:allow gcroot — Universe is enumerated by the owning Verifier's Roots (cfg.Universe)
type Config struct {
	Topo   *topo.Graph
	Engine pred.Engine
	// Universe restricts the verifier to a subspace (bdd.True for all).
	Universe bdd.Ref
	Checks   []Check
	// ActionMap translates a FIB action into CE2D forwarding behavior.
	// Nil uses DefaultActionMap.
	ActionMap func(fib.Action) reach.SyncState
	// Succ optionally restricts the potential-path successor sets of the
	// verification graphs (see reach.NewVGraphEdges). Nil uses the
	// topology's neighbor sets.
	Succ func(topo.NodeID) []topo.NodeID
}

// DefaultActionMap treats Forward(d) as a hop to device d when d is a
// topology node and as local delivery otherwise (host/external port), and
// Drop/None as dropping.
func DefaultActionMap(g *topo.Graph) func(fib.Action) reach.SyncState {
	n := topo.NodeID(g.N())
	return func(a fib.Action) reach.SyncState {
		if d, ok := a.NextHop(); ok {
			if d < n {
				return reach.SyncState{NextHops: []topo.NodeID{d}}
			}
			return reach.SyncState{Delivers: true}
		}
		return reach.SyncState{}
	}
}

// classState tracks one check over one refining partition of its packet
// space (the ecTable of Algorithm 2).
//
//flashvet:allow bddref — all class predicates live in the owning Verifier's engine (v.eng)
//flashvet:allow gcroot — every class map is enumerated by the owning Verifier's Roots
type classState struct {
	check Check
	// classes maps class predicate → per-class detection state. Class
	// predicates partition check.Space ∧ universe.
	vgraphs map[bdd.Ref]*reach.VGraph // CheckReach
	loops   map[bdd.Ref]*LoopDetector // CheckLoopFree
	multi   map[bdd.Ref]*MultiPath    // CheckAnycast/CheckMulticast
	cover   map[bdd.Ref]*Coverage     // CheckCoverage
	settled map[bdd.Ref]bool          // classes with a deterministic result
}

// Verifier is one subspace/epoch verifier: a Fast IMT model manager plus
// CE2D detection state, fed device-by-device as FIB updates arrive
// tagged with this verifier's epoch.
type Verifier struct {
	cfg       Config
	engine    pred.Engine
	store     *pat.Store
	transform *imt.Transformer
	actionMap func(fib.Action) reach.SyncState

	checks []*classState
	synced map[fib.DeviceID]bool
	// syncOrder records the devices in the order they synchronized.
	// Detection-state refinement is order-sensitive, so a checkpoint
	// restore must replay synchronization in exactly this order to
	// rebuild identical per-class state (see RestoreVerifier).
	syncOrder []fib.DeviceID
	events    []Event
}

// Rebind points the verifier (and its Fast IMT transformer) at a
// different predicate engine. Hybrid cutover calls it after every held
// Ref has been rewritten through the conversion remap (RemapRefs): the
// refs are positions in the new engine, so the verifier must stop
// consulting the old one. Caller holds the owning worker's mutex.
func (v *Verifier) Rebind(e pred.Engine) {
	v.engine = e
	v.cfg.Engine = e
	v.transform.E = e
}

// NewVerifier creates a verifier for one epoch over the given subspace.
func NewVerifier(cfg Config) *Verifier {
	if cfg.Universe == bdd.False {
		cfg.Universe = bdd.True
	}
	e := cfg.Engine
	v := &Verifier{
		cfg:       cfg,
		engine:    e,
		store:     pat.NewStore(),
		transform: imt.NewTransformer(e, pat.NewStore(), cfg.Universe),
		synced:    make(map[fib.DeviceID]bool),
	}
	if cfg.ActionMap != nil {
		v.actionMap = cfg.ActionMap
	} else {
		v.actionMap = DefaultActionMap(cfg.Topo)
	}
	for _, c := range cfg.Checks {
		// "cover P" reachability checks are coverage requirements.
		if c.Kind == CheckReach && c.Expr != nil {
			if inner, ok := c.Expr.IsCover(); ok {
				c.Kind = CheckCoverage
				c.Expr = inner
			}
		}
		space := e.And(c.Space, cfg.Universe)
		cs := &classState{
			check:   c,
			settled: make(map[bdd.Ref]bool),
		}
		succ := cfg.Succ
		if succ == nil {
			succ = cfg.Topo.Neighbors
		}
		switch c.Kind {
		case CheckReach:
			cs.vgraphs = map[bdd.Ref]*reach.VGraph{space: v.newVGraph(c)}
		case CheckLoopFree:
			cs.loops = map[bdd.Ref]*LoopDetector{space: NewLoopDetector(cfg.Topo, c.CanExit)}
		case CheckAnycast:
			cs.multi = map[bdd.Ref]*MultiPath{space: NewAnycast(cfg.Topo, c.Expr, c.Sources, c.Dests, succ)}
		case CheckMulticast:
			cs.multi = map[bdd.Ref]*MultiPath{space: NewMulticast(cfg.Topo, c.Expr, c.Sources, c.Dests, succ)}
		case CheckCoverage:
			cs.cover = map[bdd.Ref]*Coverage{space: NewCoverage(cfg.Topo, c.Expr, c.Sources, c.IsDest, succ)}
		}
		v.checks = append(v.checks, cs)
	}
	// Each classState copied its Check above; drop the caller's slice so
	// the verifier holds no alias into it. Otherwise RemapRefs would
	// rewrite check Spaces the caller also remaps (a double Apply, which
	// panics on the second pass because the first result is post-GC).
	v.cfg.Checks = nil
	return v
}

func (v *Verifier) newVGraph(c Check) *reach.VGraph {
	succ := v.cfg.Succ
	if succ == nil {
		succ = v.cfg.Topo.Neighbors
	}
	return reach.NewVGraphEdges(v.cfg.Topo, c.Expr, c.Sources, c.IsDest, succ)
}

// Transformer exposes the model manager (Fast IMT state) of the verifier.
func (v *Verifier) Transformer() *imt.Transformer { return v.transform }

// Events drains the deterministic results produced so far.
func (v *Verifier) Events() []Event {
	out := v.events
	v.events = nil
	return out
}

// SynchronizedCount reports how many devices have synchronized.
func (v *Verifier) SynchronizedCount() int { return len(v.synced) }

// ApplyUpdates applies a device's FIB updates to the model (the device is
// not yet considered synchronized; call MarkSynchronized when its FIB for
// this epoch is complete).
func (v *Verifier) ApplyUpdates(dev fib.DeviceID, updates []fib.Update) error {
	return v.transform.ApplyBlock([]fib.Block{{Device: dev, Updates: updates}})
}

// MarkSynchronized declares that the device's FIB is complete for this
// verifier's epoch and runs consistent early detection, returning any new
// deterministic results.
func (v *Verifier) MarkSynchronized(dev fib.DeviceID) ([]Event, error) {
	return v.SynchronizeTable(dev, v.transform.Table(dev))
}

// SynchronizeTable runs consistent early detection for a device against
// an explicitly provided final table instead of the verifier's own model
// manager. The live path is MarkSynchronized (which passes the internal
// transformer's table); what-if transactions pass tables from a cloned
// transformer so detection runs against the hypothetical model without
// replaying updates through this verifier.
func (v *Verifier) SynchronizeTable(dev fib.DeviceID, table *fib.Table) ([]Event, error) {
	if v.synced[dev] {
		return nil, nil
	}
	v.synced[dev] = true
	v.syncOrder = append(v.syncOrder, dev)
	// The device's behavior partition: effective predicate → action.
	rules := table.Rules()
	effs := table.EffectivePredicates(v.engine)

	before := len(v.events)
	for _, cs := range v.checks {
		if err := v.syncCheck(cs, dev, rules, effs); err != nil {
			return nil, err
		}
	}
	return append([]Event(nil), v.events[before:]...), nil
}

// SynchronizedDevices returns the devices marked synchronized, sorted.
func (v *Verifier) SynchronizedDevices() []fib.DeviceID {
	out := make([]fib.DeviceID, 0, len(v.synced))
	for dev := range v.synced {
		out = append(out, dev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// syncCheck refines the check's class partition by the device's behavior
// partition and feeds the per-class detectors (Algorithm 2's split +
// prune, plus the loop-detector analogue).
func (v *Verifier) syncCheck(cs *classState, dev fib.DeviceID, rules []fib.Rule, effs []bdd.Ref) error {
	e := v.engine
	classes := make([]bdd.Ref, 0, 4)
	switch cs.check.Kind {
	case CheckReach:
		for p := range cs.vgraphs {
			classes = append(classes, p)
		}
	case CheckLoopFree:
		for p := range cs.loops {
			classes = append(classes, p)
		}
	case CheckAnycast, CheckMulticast:
		for p := range cs.multi {
			classes = append(classes, p)
		}
	case CheckCoverage:
		for p := range cs.cover {
			classes = append(classes, p)
		}
	}
	// The class maps iterate in random order; visit classes by Ref so the
	// events of one synchronization come out in the same order every run.
	slices.Sort(classes)
	for _, p := range classes {
		if cs.settled[p] {
			continue
		}
		// Split class p by the device's distinct actions over it.
		//flashvet:allow gcroot — transient split predicates within one feed call; dead before any collection can run
		type part struct {
			pred   bdd.Ref
			action fib.Action
		}
		var parts []part
		rem := p
		for i, eff := range effs {
			if rem == bdd.False {
				break
			}
			inter := e.And(rem, eff)
			if inter == bdd.False {
				continue
			}
			parts = append(parts, part{inter, rules[i].Action})
			rem = e.Diff(rem, eff)
		}
		if rem != bdd.False {
			// Headers the device has no rule for: it drops them.
			parts = append(parts, part{rem, fib.None})
		}
		// Merge parts with identical actions (their detection state
		// stays identical, no need to split).
		byAction := make(map[fib.Action]bdd.Ref, len(parts))
		var order []fib.Action
		for _, pt := range parts {
			if prev, ok := byAction[pt.action]; ok {
				byAction[pt.action] = e.Or(prev, pt.pred)
			} else {
				byAction[pt.action] = pt.pred
				order = append(order, pt.action)
			}
		}
		if err := v.applySplit(cs, p, dev, byAction, order); err != nil {
			return err
		}
	}
	return nil
}

func (v *Verifier) applySplit(cs *classState, p bdd.Ref, dev fib.DeviceID, byAction map[fib.Action]bdd.Ref, order []fib.Action) error {
	first := true
	for _, action := range order {
		pred := byAction[action]
		st := v.actionMap(action)
		var sub bdd.Ref
		if len(order) == 1 {
			sub = p // no split needed
		} else {
			sub = pred
		}
		switch cs.check.Kind {
		case CheckReach:
			vg := cs.vgraphs[p]
			if !first || len(order) > 1 {
				vg = vg.Clone()
			}
			if len(order) > 1 {
				cs.vgraphs[sub] = vg
			}
			if err := vg.Synchronize(dev, st); err != nil {
				return fmt.Errorf("ce2d: check %q: %w", cs.check.Name, err)
			}
			if verdict := vg.Verdict(); verdict != reach.Unknown {
				cs.settled[sub] = true
				v.events = append(v.events, Event{Check: cs.check.Name, Class: sub, Verdict: verdict})
			}
		case CheckLoopFree:
			ldet := cs.loops[p]
			if !first || len(order) > 1 {
				ldet = ldet.Clone()
			}
			if len(order) > 1 {
				cs.loops[sub] = ldet
			}
			res, err := ldet.Synchronize(dev, st)
			if err != nil {
				return fmt.Errorf("ce2d: check %q: %w", cs.check.Name, err)
			}
			if res != LoopUnknown {
				cs.settled[sub] = true
				v.events = append(v.events, Event{Check: cs.check.Name, Class: sub, Loop: res})
			}
		case CheckAnycast, CheckMulticast:
			mp := cs.multi[p]
			if !first || len(order) > 1 {
				mp = mp.Clone()
			}
			if len(order) > 1 {
				cs.multi[sub] = mp
			}
			if err := mp.Synchronize(dev, st); err != nil {
				return fmt.Errorf("ce2d: check %q: %w", cs.check.Name, err)
			}
			if verdict := mp.Verdict(); verdict != reach.Unknown {
				cs.settled[sub] = true
				v.events = append(v.events, Event{Check: cs.check.Name, Class: sub, Verdict: verdict})
			}
		case CheckCoverage:
			cov := cs.cover[p]
			if !first || len(order) > 1 {
				cov = cov.Clone()
			}
			if len(order) > 1 {
				cs.cover[sub] = cov
			}
			if err := cov.Synchronize(dev, st); err != nil {
				return fmt.Errorf("ce2d: check %q: %w", cs.check.Name, err)
			}
			if verdict := cov.Verdict(); verdict != reach.Unknown {
				cs.settled[sub] = true
				v.events = append(v.events, Event{Check: cs.check.Name, Class: sub, Verdict: verdict})
			}
		}
		first = false
	}
	if len(order) > 1 {
		// The old, coarser class is superseded by its refinement.
		switch cs.check.Kind {
		case CheckReach:
			delete(cs.vgraphs, p)
		case CheckLoopFree:
			delete(cs.loops, p)
		case CheckAnycast, CheckMulticast:
			delete(cs.multi, p)
		case CheckCoverage:
			delete(cs.cover, p)
		}
		delete(cs.settled, p)
	}
	return nil
}
