package flash

// Differential oracle suite: Flash's scheduler/batching matrix is run
// against two independently-implemented baselines (Delta-net* interval
// lists, APKeep* per-update ECs) on seeded, skewed workloads. Every
// configuration must agree on the semantic model (per-device forwarding
// action at seeded probe headers) and on the verdict multiset — the
// work-stealing scheduler and Fast IMT batching may only change *when*
// work happens, never *what* is computed.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/apkeep"
	"repro/internal/bdd"
	"repro/internal/deltanet"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/pat"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/workload"
)

const diffSubspaces = 4

// diffWorkload builds a fresh tiny skewed workload. Every engine gets
// its own Workload value (and thus its own BDD engine): the APKeep*
// baseline and Flash both compile into the workload's engine, and
// sharing one would let the systems interfere.
func diffWorkload(seed int64) (*workload.Workload, []workload.DevUpdate) {
	w := workload.TraceAPSP("diff", topo.Internet2())
	return w, w.SkewedChurn(3, diffSubspaces, 0.9, seed)
}

// diffProbes returns seeded random probe headers over the dst field.
func diffProbes(w *workload.Workload, seed int64, n int) []uint64 {
	width := w.Layout.FieldBits("dst")
	rng := rand.New(rand.NewSource(seed))
	probes := make([]uint64, n)
	for i := range probes {
		probes[i] = uint64(rng.Intn(1 << uint(width)))
	}
	return probes
}

// diffFingerprint hashes the full probe×device action table — the
// semantic fingerprint of a data plane model. Two systems with equal
// fingerprints agree on the forwarding behaviour at every probe.
func diffFingerprint(devices int, probes []uint64, actionAt func(dev fib.DeviceID, x uint64) fib.Action) uint64 {
	h := fnv.New64a()
	for d := 0; d < devices; d++ {
		for _, x := range probes {
			fmt.Fprintf(h, "%d/%x/%v\n", d, x, actionAt(fib.DeviceID(d), x))
		}
	}
	return h.Sum64()
}

// diffConfig is one cell of the scheduler/batching/GC/representation
// matrix.
type diffConfig struct {
	workers, batch int
	budget         int           // WithMemoryBudget; 0 disables automatic GC
	mode           PredicateMode // predicate representation strategy
	subspaces      int           // WithSubspaces; 0 means diffSubspaces
}

// subs is the row's subspace count.
func (c diffConfig) subs() int {
	if c.subspaces == 0 {
		return diffSubspaces
	}
	return c.subspaces
}

// diffConfigs is the scheduler/batching/GC/representation matrix under
// differential test. The budgeted rows force frequent in-engine
// collections (the tiny budget is crossed almost every block), proving
// GC changes when nodes are reclaimed but never what is computed. The
// hybrid rows run the same workload on Delta-net-style interval atoms
// (the churn workloads are pure prefix, so the atom path stays live
// end-to-end), proving representation changes cost but never verdicts.
// The subspace rows vary how finely the header space is partitioned —
// and with it how much route-before-compile prunes: nothing at one
// subspace, seven workers in eight at eight — proving routing changes
// who compiles an update but never what is computed.
func diffConfigs() []diffConfig {
	var cfgs []diffConfig
	for _, wk := range []int{1, 4, runtime.NumCPU()} {
		for _, bt := range []int{1, 16} {
			cfgs = append(cfgs, diffConfig{workers: wk, batch: bt})
		}
	}
	cfgs = append(cfgs,
		// A routed worker compiles only the prefixes that reach its own
		// subspace, so its engine holds a fraction of what it did when every
		// worker compiled every update; the budget is sized to that.
		diffConfig{workers: 1, batch: 1, budget: 32},
		diffConfig{workers: 4, batch: 16, budget: 32},
		diffConfig{workers: 1, batch: 1, mode: PredicateHybrid},
		diffConfig{workers: 4, batch: 16, mode: PredicateHybrid},
		// Atoms are far more compact than BDD nodes (that is the point of
		// the hybrid mode), so the budget that forces a collection every
		// few blocks on BDDs must be far tighter here to trip at all.
		diffConfig{workers: 4, batch: 16, budget: 8, mode: PredicateHybrid},
	)
	for _, n := range []int{1, 2, 8} {
		cfgs = append(cfgs,
			diffConfig{workers: 4, batch: 16, subspaces: n},
			diffConfig{workers: 4, batch: 16, subspaces: n, mode: PredicateHybrid},
		)
	}
	return cfgs
}

// TestDifferentialModelOracle: the final EC model produced by Flash
// under every workers×batch configuration must match the Delta-net*
// and APKeep* baselines probe-for-probe.
func TestDifferentialModelOracle(t *testing.T) {
	for _, seed := range []int64{0xd1ff1, 0xd1ff2} {
		// Delta-net* baseline: sorted interval lists, no BDDs at all.
		dw, dseq := diffWorkload(seed)
		devices := dw.Topo.N()
		probes := diffProbes(dw, seed*31, 96)
		dn := deltanet.New(dw.Layout)
		for _, du := range dseq {
			if err := dn.Apply(du.Dev, du.Update); err != nil {
				t.Fatal(err)
			}
		}
		want := diffFingerprint(devices, probes, dn.ActionAt)

		// APKeep* baseline: per-update EC maintenance on its own engine.
		aw, aseq := diffWorkload(seed)
		primary := aw.Layout.Fields()[0]
		store := pat.NewStore()
		ap := apkeep.New(aw.Space.E, store, bdd.True, primary.Name, primary.Bits)
		for _, du := range aseq {
			if err := ap.Apply(du.Dev, du.Update); err != nil {
				t.Fatal(err)
			}
		}
		apFP := diffFingerprint(devices, probes, func(dev fib.DeviceID, x uint64) fib.Action {
			vec, ok := ap.Model().Lookup(aw.Space.E, aw.Space.Assignment(hs.Header{x}))
			if !ok {
				return fib.None
			}
			return store.Get(vec, dev)
		})
		if apFP != want {
			t.Fatalf("seed %#x: APKeep* disagrees with Delta-net* (oracle baselines diverge)", seed)
		}

		for _, cfg := range diffConfigs() {
			fw, fseq := diffWorkload(seed)
			b := NewModelBuilder(
				WithTopo(fw.Topo),
				WithLayout(fw.Layout),
				WithSubspaces(cfg.subs(), ""),
				WithWorkers(cfg.workers),
				WithBatch(cfg.batch),
				WithMemoryBudget(cfg.budget),
				WithPredicateMode(cfg.mode),
			)
			for _, batch := range workload.Chunk(fseq, 32) {
				blocks := make([]DeviceBlock, 0, len(batch))
				for _, fb := range batch {
					db := DeviceBlock{Device: fb.Device}
					for _, u := range fb.Updates {
						db.Updates = append(db.Updates, Update{Op: u.Op,
							Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
					}
					blocks = append(blocks, db)
				}
				if err := b.ApplyBlock(blocks); err != nil {
					t.Fatal(err)
				}
			}
			got := diffFingerprint(devices, probes, func(dev fib.DeviceID, x uint64) fib.Action {
				a, err := b.ActionAt(dev, []uint64{x})
				if err != nil {
					return fib.None
				}
				return a
			})
			if got != want {
				t.Fatalf("seed %#x workers=%d batch=%d budget=%d mode=%s: Flash model diverges from baselines",
					seed, cfg.workers, cfg.batch, cfg.budget, cfg.mode)
			}
			if cfg.mode == PredicateHybrid {
				if n := b.PredicateCutovers(); n != 0 {
					t.Fatalf("seed %#x workers=%d batch=%d budget=%d: prefix-only churn forced %d atom cutovers",
						seed, cfg.workers, cfg.batch, cfg.budget, n)
				}
				for i, m := range b.PredicateModes() {
					if m != "atoms" {
						t.Fatalf("seed %#x workers=%d batch=%d budget=%d: subspace %d on %q, want atoms (hybrid row degenerated)",
							seed, cfg.workers, cfg.batch, cfg.budget, i, m)
					}
				}
			}
		}
	}
}

// diffStream converts a flat update sequence into CE2D wire messages:
// consecutive updates are grouped into epochs, with at most one message
// per device per epoch (the CE2D contract).
func diffStream(t *testing.T, seq []workload.DevUpdate, perEpoch int) [][]Msg {
	t.Helper()
	var epochs [][]Msg
	for start, e := 0, 1; start < len(seq); e++ {
		end := start + perEpoch
		if end > len(seq) {
			end = len(seq)
		}
		byDev := make(map[fib.DeviceID][]fib.Update)
		var order []fib.DeviceID
		for _, du := range seq[start:end] {
			if _, ok := byDev[du.Dev]; !ok {
				order = append(order, du.Dev)
			}
			byDev[du.Dev] = append(byDev[du.Dev], du.Update)
		}
		var msgs []Msg
		for _, dev := range order {
			m, err := wire.FromFib(dev, fmt.Sprintf("e%d", e), byDev[dev])
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		epochs = append(epochs, msgs)
		start = end
	}
	return epochs
}

// unrouted applies one epoch's messages the way every version before
// route-before-compile did: every subspace worker compiles every update
// and finds out by itself which ones miss its universe. It is the
// reference the routed FeedBatch and ApplyBlock paths are held to. A
// *System takes the messages one by one and returns their results; a
// *ModelBuilder applies them as one block list.
func unrouted(t *testing.T, target any, msgs []Msg) []Result {
	t.Helper()
	var out []Result
	switch x := target.(type) {
	case *System:
		for _, m := range msgs {
			for _, w := range x.workers {
				rs, err := w.feedAll(context.Background(), []Msg{m}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rs[0]...)
			}
		}
	case *ModelBuilder:
		blocks := make([]DeviceBlock, len(msgs))
		for i, m := range msgs {
			blocks[i] = DeviceBlock{Device: m.Device, Updates: m.Updates}
		}
		for _, w := range x.workers {
			if err := w.apply(blocks, nil); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("unrouted: %T is neither a System nor a ModelBuilder", target)
	}
	return out
}

// TestDifferentialVerdictOracle: the verdict multiset and final model
// fingerprint must be identical across the whole workers×batch matrix,
// including against an APKeep-style per-update reference configuration.
func TestDifferentialVerdictOracle(t *testing.T) {
	const seed = 0xd1ff3
	_, seq := diffWorkload(seed)
	rw, _ := diffWorkload(seed)
	epochs := diffStream(t, seq, 24)
	lastEpoch := fmt.Sprintf("e%d", len(epochs))

	newSys := func(subspaces int, extra ...Option) *System {
		opts := []Option{
			WithTopo(rw.Topo),
			WithLayout(rw.Layout),
			WithSubspaces(subspaces, ""),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
		}
		sys, err := NewSystem(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// run feeds the stream and returns the sorted verdicts and the final
	// fingerprint: epoch by epoch through FeedBatch, or — the reference —
	// message by message with every worker compiling every update.
	run := func(sys *System, reference bool) ([]string, string) {
		var verdicts []string
		for _, msgs := range epochs {
			if !reference {
				rs, err := sys.FeedBatch(context.Background(), msgs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					verdicts = append(verdicts, r.String())
				}
				continue
			}
			for _, r := range unrouted(t, sys, msgs) {
				verdicts = append(verdicts, r.String())
			}
		}
		sort.Strings(verdicts)
		fp, err := sys.ModelFingerprint(lastEpoch)
		if err != nil {
			t.Fatal(err)
		}
		return verdicts, fp
	}

	// Reference, one per subspace count (results carry their subspace):
	// per-update processing (the APKeep-style ablation), no batching, no
	// routing, sequential feed.
	type outcome struct {
		verdicts []string
		fp       string
	}
	references := make(map[int]outcome)
	reference := func(subspaces int) outcome {
		if ref, ok := references[subspaces]; ok {
			return ref
		}
		v, fp := run(newSys(subspaces, WithPerUpdate(true), WithWorkers(1)), true)
		if len(v) == 0 {
			t.Fatalf("%d subspaces: reference run produced no verdicts", subspaces)
		}
		references[subspaces] = outcome{v, fp}
		return references[subspaces]
	}

	for _, cfg := range diffConfigs() {
		ref := reference(cfg.subs())
		wantVerdicts, wantFP := ref.verdicts, ref.fp
		sys := newSys(cfg.subs(), WithWorkers(cfg.workers), WithBatch(cfg.batch), WithMemoryBudget(cfg.budget), WithPredicateMode(cfg.mode))
		gotVerdicts, gotFP := run(sys, false)
		if gotFP != wantFP {
			t.Fatalf("workers=%d batch=%d budget=%d mode=%s subspaces=%d: model fingerprint diverges from per-update reference",
				cfg.workers, cfg.batch, cfg.budget, cfg.mode, cfg.subs())
		}
		if cfg.mode == PredicateHybrid {
			// The churn workload is pure prefix: the atom representation
			// must have survived the whole run, or the row silently
			// degenerated into another BDD row and proved nothing.
			if n := sys.PredicateCutovers(); n != 0 {
				t.Fatalf("workers=%d batch=%d budget=%d: prefix-only churn forced %d atom cutovers", cfg.workers, cfg.batch, cfg.budget, n)
			}
			for i, m := range sys.PredicateModes() {
				if m != "atoms" {
					t.Fatalf("workers=%d batch=%d budget=%d: subspace %d on %q, want atoms", cfg.workers, cfg.batch, cfg.budget, i, m)
				}
			}
		}
		if len(gotVerdicts) != len(wantVerdicts) {
			t.Fatalf("workers=%d batch=%d budget=%d: %d verdicts, reference has %d",
				cfg.workers, cfg.batch, cfg.budget, len(gotVerdicts), len(wantVerdicts))
		}
		for i := range wantVerdicts {
			if gotVerdicts[i] != wantVerdicts[i] {
				t.Fatalf("workers=%d batch=%d budget=%d: verdict multiset diverges at %d:\n  got:  %s\n  want: %s",
					cfg.workers, cfg.batch, cfg.budget, i, gotVerdicts[i], wantVerdicts[i])
			}
		}
		if cfg.budget > 0 && sys.StatsSnapshot().GC.Runs == 0 {
			t.Fatalf("workers=%d batch=%d budget=%d: budgeted run never collected — the GC path was not exercised",
				cfg.workers, cfg.batch, cfg.budget)
		}
	}
}

// diffHeaderProbes returns seeded random probe headers spanning every
// layout field (diffProbes only covers single-field dst layouts).
func diffHeaderProbes(lay *hs.Layout, seed int64, n int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	fields := lay.Fields()
	probes := make([][]uint64, n)
	for i := range probes {
		h := make([]uint64, len(fields))
		for j, f := range fields {
			h[j] = uint64(rng.Int63n(1 << uint(f.Bits)))
		}
		probes[i] = h
	}
	return probes
}

// TestDifferentialHybridGenerators runs every workload generator through
// a BDD-mode and a hybrid-mode ModelBuilder and requires identical model
// fingerprints. The pure-prefix generators (trace/LNet APSP) must keep
// the atom representation live end-to-end; the generators that emit
// multi-field (LNet-ecmp) or ternary (LNet-smr) rules must instead trip
// the one-way cutover guard mid-stream — so this sweep covers both
// steady-state representations and the conversion itself on every
// workload shape the repo can generate.
func TestDifferentialHybridGenerators(t *testing.T) {
	small := topo.FabricParams{Pods: 2, TorsPerPod: 2, AggsPerPod: 2, SpinePlanes: 2, SpinePer: 1}
	gens := []struct {
		name   string
		make   func() *workload.Workload
		prefix bool // pure single-field prefix rules: atoms must survive
	}{
		{"trace-apsp", func() *workload.Workload { return workload.TraceAPSP("diff", topo.Internet2()) }, true},
		{"lnet-apsp", func() *workload.Workload { return workload.LNetAPSP(small) }, true},
		{"lnet-ecmp", func() *workload.Workload { return workload.LNetECMP(small) }, false},
		{"lnet-smr", func() *workload.Workload { return workload.LNetSMR(small) }, false},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			run := func(mode PredicateMode) (uint64, *ModelBuilder) {
				w := g.make()
				b := NewModelBuilder(
					WithTopo(w.Topo),
					WithLayout(w.Layout),
					WithSubspaces(diffSubspaces, ""),
					WithPredicateMode(mode),
				)
				for _, batch := range workload.Chunk(w.InsertSequence(), 32) {
					blocks := make([]DeviceBlock, 0, len(batch))
					for _, fb := range batch {
						db := DeviceBlock{Device: fb.Device}
						for _, u := range fb.Updates {
							db.Updates = append(db.Updates, Update{Op: u.Op,
								Rule: Rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action, Desc: u.Rule.Desc}})
						}
						blocks = append(blocks, db)
					}
					if err := b.ApplyBlock(blocks); err != nil {
						t.Fatal(err)
					}
				}
				probes := diffHeaderProbes(w.Layout, 0xbeef, 64)
				h := fnv.New64a()
				for d := 0; d < w.Topo.N(); d++ {
					for _, x := range probes {
						a, err := b.ActionAt(fib.DeviceID(d), x)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(h, "%d/%x/%v\n", d, x, a)
					}
				}
				return h.Sum64(), b
			}
			want, _ := run(PredicateBDD)
			got, hb := run(PredicateHybrid)
			if got != want {
				t.Fatalf("hybrid model diverges from BDD model on %s", g.name)
			}
			modes, cutovers := hb.PredicateModes(), hb.PredicateCutovers()
			if g.prefix {
				if cutovers != 0 {
					t.Fatalf("pure-prefix generator forced %d cutovers", cutovers)
				}
				for i, m := range modes {
					if m != "atoms" {
						t.Fatalf("subspace %d on %q, want atoms (hybrid run degenerated)", i, m)
					}
				}
			} else {
				if cutovers == 0 {
					t.Fatalf("non-prefix generator never tripped the cutover guard (modes %v)", modes)
				}
				for i, m := range modes {
					if m != "bdd" {
						t.Fatalf("subspace %d still on %q after non-prefix rules", i, m)
					}
				}
			}
		})
	}
}

// TestDifferentialHybridMidstreamCutover is the bug-class regression at
// the heart of the hybrid design: a System ingests prefix-only churn on
// atoms across many epochs, then one ACL (ternary) rule arrives and
// every subspace must convert its entire live state — universe, check
// scopes, queued messages, per-epoch verifiers — to a fresh BDD engine
// without changing a single verdict or the model fingerprint.
func TestDifferentialHybridMidstreamCutover(t *testing.T) {
	const seed = 0xc0701
	_, seq := diffWorkload(seed)
	rw, _ := diffWorkload(seed)
	prefixEpochs := diffStream(t, seq, 24)
	aclEpoch := fmt.Sprintf("e%d", len(prefixEpochs)+1)
	acl, err := wire.FromFib(0, aclEpoch, []fib.Update{{
		Op: fib.Insert,
		Rule: fib.Rule{ID: 99999, Pri: 99, Action: fib.Drop,
			Desc: fib.MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 3}}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode PredicateMode) ([]string, string) {
		sys, err := NewSystem(
			WithTopo(rw.Topo),
			WithLayout(rw.Layout),
			WithSubspaces(diffSubspaces, ""),
			WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree}),
			WithPredicateMode(mode),
		)
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		feed := func(msgs []Msg) {
			rs, ferr := sys.FeedBatch(context.Background(), msgs)
			if ferr != nil {
				t.Fatal(ferr)
			}
			for _, r := range rs {
				verdicts = append(verdicts, r.String())
			}
		}
		for _, msgs := range prefixEpochs {
			feed(msgs)
		}
		if mode == PredicateHybrid {
			// All churn so far was pure prefix: the cutover must not have
			// fired yet, or this test is not exercising a mid-stream flip.
			if n := sys.PredicateCutovers(); n != 0 {
				t.Fatalf("hybrid system cut over during prefix churn (%d cutovers)", n)
			}
		}
		feed([]Msg{acl})
		if mode == PredicateHybrid {
			if n := sys.PredicateCutovers(); n != diffSubspaces {
				t.Fatalf("ACL rule triggered %d cutovers, want %d (one per subspace)", n, diffSubspaces)
			}
			for i, m := range sys.PredicateModes() {
				if m != "bdd" {
					t.Fatalf("subspace %d still on %q after ACL rule", i, m)
				}
			}
		}
		sort.Strings(verdicts)
		fp, ferr := sys.ModelFingerprint(aclEpoch)
		if ferr != nil {
			t.Fatal(ferr)
		}
		return verdicts, fp
	}

	wantVerdicts, wantFP := run(PredicateBDD)
	gotVerdicts, gotFP := run(PredicateHybrid)
	if len(wantVerdicts) == 0 {
		t.Fatal("reference run produced no verdicts")
	}
	if gotFP != wantFP {
		t.Fatal("post-cutover model fingerprint diverges from the all-BDD run")
	}
	if len(gotVerdicts) != len(wantVerdicts) {
		t.Fatalf("hybrid run produced %d verdicts, all-BDD run %d", len(gotVerdicts), len(wantVerdicts))
	}
	for i := range wantVerdicts {
		if gotVerdicts[i] != wantVerdicts[i] {
			t.Fatalf("verdict multiset diverges at %d:\n  got:  %s\n  want: %s", i, gotVerdicts[i], wantVerdicts[i])
		}
	}
}

// diffMixedStream is the stream route-before-compile has to get right:
// beside long prefixes (one subspace each) it carries /0, /1 and /2
// prefixes that span several subspaces, and then a two-field ACL (third
// of its five epochs) and a ternary rule (fourth), neither of which a
// router may narrow: each is what cuts a hybrid subspace over to BDD,
// whether or not it intersects the subspace. Every device reports in
// every epoch, so verdicts are emitted throughout.
func diffMixedStream(seed int64) (*topo.Graph, *hs.Layout, [][]Msg) {
	g := topo.Internet2()
	lay := hs.NewLayout(hs.Field{Name: "dst", Bits: 16}, hs.Field{Name: "src", Bits: 8})
	rng := rand.New(rand.NewSource(seed))
	pfx := func(value uint64, plen int) MatchDesc {
		return MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: value &^ (1<<uint(16-plen) - 1), Len: plen}}
	}
	hop := func(dev int) fib.Action {
		nbrs := g.Neighbors(topo.NodeID(dev))
		if rng.Intn(5) == 0 {
			return fib.Forward(topo.NodeID(g.N())) // deliver
		}
		return fib.Forward(nbrs[rng.Intn(len(nbrs))])
	}
	type installed struct {
		id   int64
		pri  int32
		desc MatchDesc
	}
	long := make([][]installed, g.N())
	nextID := int64(1)
	insert := func(dev int, ups *[]Update, desc MatchDesc, pri int32, a fib.Action) installed {
		r := installed{id: nextID, pri: pri, desc: desc}
		nextID++
		*ups = append(*ups, Update{Op: fib.Insert, Rule: Rule{ID: r.id, Pri: pri, Action: a, Desc: desc}})
		return r
	}
	churn := func(dev int, ups *[]Update) {
		for k := 0; k < 2; k++ {
			victim := rng.Intn(len(long[dev]))
			old := long[dev][victim]
			*ups = append(*ups, Update{Op: fib.Delete, Rule: Rule{ID: old.id, Pri: old.pri, Desc: old.desc}})
			plen := []int{8, 12, 16}[rng.Intn(3)]
			long[dev][victim] = insert(dev, ups, pfx(uint64(rng.Intn(1<<16)), plen), int32(plen), hop(dev))
		}
	}
	var epochs [][]Msg
	for e := 1; e <= 5; e++ {
		var msgs []Msg
		for _, dev := range rng.Perm(g.N()) {
			var ups []Update
			switch e {
			case 1:
				insert(dev, &ups, pfx(0, 0), 0, fib.Drop)
				insert(dev, &ups, pfx(uint64(rng.Intn(2))<<15, 1), 1, hop(dev))
				insert(dev, &ups, pfx(uint64(rng.Intn(4))<<14, 2), 2, hop(dev))
				for k := 0; k < 6; k++ {
					plen := []int{8, 12, 16}[rng.Intn(3)]
					long[dev] = append(long[dev], insert(dev, &ups, pfx(uint64(rng.Intn(1<<16)), plen), int32(plen), hop(dev)))
				}
			case 3, 4:
				churn(dev, &ups)
				switch {
				case e == 3 && dev == 2:
					insert(dev, &ups, MatchDesc{
						{Field: "dst", Kind: fib.MatchPrefix, Value: 0x1200, Len: 8},
						{Field: "src", Kind: fib.MatchPrefix, Value: 0x80, Len: 1}}, 41, fib.Drop)
				case e == 4 && dev == 1:
					insert(dev, &ups, MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 3}}, 40, fib.Drop)
				}
				churn(dev, &ups)
			default:
				churn(dev, &ups)
				if e == 2 {
					insert(dev, &ups, pfx(uint64(rng.Intn(4))<<14, 2), 3, hop(dev))
				}
			}
			msgs = append(msgs, Msg{Device: DeviceID(dev), Epoch: fmt.Sprintf("e%d", e), Updates: ups})
		}
		epochs = append(epochs, msgs)
	}
	return g, lay, epochs
}

// TestDifferentialRoutedMixedStream holds route-before-compile to the
// unrouted per-update reference on the mixed stream, for a System and a
// ModelBuilder at every subspace row of the matrix: same model
// fingerprint, EC count, forwarding action at seeded probes and verdict
// multiset; the hybrid rows stay on atoms through the /0–/2 prefixes and
// then cut over in every subspace at once, exactly as when every worker
// compiled every update.
func TestDifferentialRoutedMixedStream(t *testing.T) {
	g, lay, epochs := diffMixedStream(0xd1ff5)
	const aclEpoch = 3 // 1-based: the epoch carrying the two-field rule
	lastEpoch := fmt.Sprintf("e%d", len(epochs))
	probes := diffHeaderProbes(lay, 0xbeef, 96)

	for _, cfg := range diffConfigs() {
		if cfg.subspaces == 0 {
			continue // the scheduler/batching/GC rows are covered on the prefix-only stream
		}
		name := fmt.Sprintf("subspaces=%d mode=%s", cfg.subs(), cfg.mode)
		wantCutovers := func(epoch int) int {
			if cfg.mode == PredicateHybrid && epoch >= aclEpoch {
				return cfg.subs()
			}
			return 0
		}

		// System.
		newSys := func(extra ...Option) *System {
			sys, err := NewSystem(append([]Option{WithTopo(g), WithLayout(lay), WithSubspaces(cfg.subs(), ""),
				WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree})}, extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		ref := newSys(WithPerUpdate(true), WithWorkers(1))
		sys := newSys(WithWorkers(cfg.workers), WithBatch(cfg.batch), WithPredicateMode(cfg.mode))
		var want, got []string
		for e, msgs := range epochs {
			for _, r := range unrouted(t, ref, msgs) {
				want = append(want, r.String())
			}
			rs, err := sys.FeedBatch(context.Background(), msgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				got = append(got, r.String())
			}
			if n := sys.PredicateCutovers(); n != wantCutovers(e+1) {
				t.Fatalf("%s: %d cutovers after epoch %d, want %d", name, n, e+1, wantCutovers(e+1))
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference run produced no verdicts", name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts, reference has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict multiset diverges at %d:\n  got:  %s\n  want: %s", name, i, got[i], want[i])
			}
		}
		wantFP, err := ref.ModelFingerprint(lastEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if gotFP, err := sys.ModelFingerprint(lastEpoch); err != nil || gotFP != wantFP {
			t.Fatalf("%s: model fingerprint diverges from the unrouted reference (err %v)", name, err)
		}
		if g, w := sys.StatsSnapshot().ECs, ref.StatsSnapshot().ECs; g != w {
			t.Fatalf("%s: %d equivalence classes, unrouted reference %d", name, g, w)
		}

		// ModelBuilder, fed the same messages as blocks.
		refB := NewModelBuilder(WithTopo(g), WithLayout(lay), WithSubspaces(cfg.subs(), ""), WithPerUpdate(true), WithWorkers(1))
		b := NewModelBuilder(WithTopo(g), WithLayout(lay), WithSubspaces(cfg.subs(), ""),
			WithWorkers(cfg.workers), WithBatch(cfg.batch), WithPredicateMode(cfg.mode))
		for e, msgs := range epochs {
			blocks := make([]DeviceBlock, len(msgs))
			for i, m := range msgs {
				blocks[i] = DeviceBlock{Device: m.Device, Updates: m.Updates}
			}
			unrouted(t, refB, msgs)
			if err := b.ApplyBlock(blocks); err != nil {
				t.Fatal(err)
			}
			if n := b.PredicateCutovers(); n != wantCutovers(e+1) {
				t.Fatalf("%s: builder has %d cutovers after epoch %d, want %d", name, n, e+1, wantCutovers(e+1))
			}
		}
		if g, w := b.StatsSnapshot().ECs, refB.StatsSnapshot().ECs; g != w {
			t.Fatalf("%s: builder holds %d equivalence classes, unrouted reference %d", name, g, w)
		}
		for d := 0; d < g.N(); d++ {
			for _, x := range probes {
				ga, err := b.ActionAt(DeviceID(d), x)
				if err != nil {
					t.Fatal(err)
				}
				wa, err := refB.ActionAt(DeviceID(d), x)
				if err != nil {
					t.Fatal(err)
				}
				if ga != wa {
					t.Fatalf("%s: device %d forwards %v by %v, unrouted reference by %v", name, d, x, ga, wa)
				}
			}
		}
	}
}

// TestRoutedInsertCostsOneWorker is the counter side of
// route-before-compile: with eight subspaces a /16 insert costs predicate
// operations in exactly one subspace worker (before, every worker
// compiled it and ANDed it with its universe to learn it was empty), a
// /1 insert in the four it spans, and a ternary rule — unroutable — in
// all eight.
func TestRoutedInsertCostsOneWorker(t *testing.T) {
	lay := hs.NewLayout(hs.Field{Name: "dst", Bits: 16})
	workerOps := func(b *ModelBuilder) []uint64 {
		out := make([]uint64, len(b.workers))
		for i, w := range b.workers {
			w.mu.Lock()
			out[i] = w.base.ops + w.eng.Ops()
			w.mu.Unlock()
		}
		return out
	}
	for _, mode := range []PredicateMode{PredicateBDD, PredicateHybrid} {
		b := NewModelBuilder(WithTopo(topo.Internet2()), WithLayout(lay), WithSubspaces(8, ""), WithPredicateMode(mode))
		idle := workerOps(b)
		if err := b.ApplyBlock(nil); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(workerOps(b)) != fmt.Sprint(idle) {
			// -tags flashcheck: every applied block re-proves the EC
			// partition in every worker, so operations no longer tell who
			// compiled what.
			t.Skip("the flashcheck invariant layer costs predicate operations on every block")
		}
		id := int64(0)
		touched := func(desc MatchDesc) []int {
			t.Helper()
			id++
			before := workerOps(b)
			err := b.ApplyBlock([]DeviceBlock{{Device: 0, Updates: []Update{
				{Op: fib.Insert, Rule: Rule{ID: id, Pri: int32(id), Action: fib.Drop, Desc: desc}}}}})
			if err != nil {
				t.Fatal(err)
			}
			var out []int
			for i, n := range workerOps(b) {
				if n != before[i] {
					out = append(out, i)
				}
			}
			return out
		}
		cases := []struct {
			desc MatchDesc
			want []int
		}{
			{MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0xA123, Len: 16}}, []int{5}},
			{MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x2000, Len: 3}}, []int{1}},
			{MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x8000, Len: 1}}, []int{4, 5, 6, 7}},
			{MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0, Len: 0}}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
			{MatchDesc{{Field: "dst", Kind: fib.MatchTernary, Value: 1, Mask: 1}}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		}
		for _, tc := range cases {
			if got := touched(tc.desc); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("mode=%s: %v cost predicate operations in workers %v, want %v", mode, tc.desc, got, tc.want)
			}
		}
	}
}
