package main

import (
	"fmt"
	"math/rand"

	flash "repro"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/openr"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/workload"
)

// sizes fixes every input dimension. They are constants of the benchmark,
// not flags: a run on another commit must do the same work. tinySizes is
// the smoke tier used by bench_test.go only.
type sizes struct {
	stormFabric topo.FabricParams
	wideRules   int // rules per device
	flapFabric  topo.FabricParams
	flapK       int // link fail/restore flaps in epoch-flap
	mixedK      int // flaps in serve-mixed
	// rateMsgsPerS is the fixed open-loop rate of epoch-flap phase B and
	// serve-mixed: set once to about half of phase-A capacity at the seed
	// commit on the 2-core sandbox and not retuned afterwards.
	rateMsgsPerS float64
	whatIfEvery  int     // reader: one what-if per this many ms
	ckptEvery    int     // reader: one checkpoint per this many ms
	memoryBudget int     // serve-mixed WithMemoryBudget (live nodes)
	probeCut     float64 // share of the stream fed before the probe's checkpoints
	probeWhatIfs int
	probeCkpts   int
	probeRecover int
	setupReps    int
}

var fullSizes = sizes{
	// Between exps.Medium (96 switches) and exps.Large (288): 160 switches,
	// 15.5k rules, 46.6k updates per round.
	stormFabric:  topo.FabricParams{Pods: 12, TorsPerPod: 8, AggsPerPod: 4, SpinePlanes: 4, SpinePer: 4},
	wideRules:    400,
	flapFabric:   topo.FabricParams{Pods: 8, TorsPerPod: 6, AggsPerPod: 4, SpinePlanes: 4, SpinePer: 4}, // exps.Medium
	flapK:        4,
	mixedK:       3,
	rateMsgsPerS: 300,
	whatIfEvery:  250,
	ckptEvery:    500,
	memoryBudget: 2000,
	probeCut:     0.8,
	probeWhatIfs: 5,
	probeCkpts:   21,
	probeRecover: 5,
	setupReps:    3,
}

var tinySizes = sizes{
	stormFabric:  topo.FabricParams{Pods: 2, TorsPerPod: 2, AggsPerPod: 2, SpinePlanes: 2, SpinePer: 1}, // exps.Tiny
	wideRules:    20,
	flapFabric:   topo.FabricParams{Pods: 2, TorsPerPod: 2, AggsPerPod: 2, SpinePlanes: 2, SpinePer: 1},
	flapK:        2,
	mixedK:       2,
	rateMsgsPerS: 400,
	whatIfEvery:  10,
	ckptEvery:    40,
	memoryBudget: 500,
	probeCut:     0.8,
	probeWhatIfs: 3,
	probeCkpts:   2,
	probeRecover: 1,
	setupReps:    1,
}

const (
	stormSubspaces = 8
	stormBlock     = 128
	stormBatch     = 16
	stormChurn     = 3
	stormHotFrac   = 0.9
)

// inputs is one workload's generated input: the only thing the program
// under test receives. Everything in it is a function of (workload,
// sizes, seed).
type inputs struct {
	workload string
	topo     *topo.Graph
	layout   *hs.Layout
	// opts configure the System (or ModelBuilder) the workload drives,
	// without metrics.
	opts []flash.Option
	// msgs is the update stream in arrival order. For storm-model each
	// message is one device block of a 128-update chunk (no epoch).
	msgs    []flash.Msg
	updates int
	// chunks groups msgs into the ApplyBlock calls of storm-model.
	chunks [][]flash.DeviceBlock
	// probeMsgs is the stream the idle serving probe feeds a System: msgs
	// itself, except on storm-model, whose churn repeats devices within
	// one epoch; there it is the fabric's FIB as one message per device.
	probeMsgs []flash.Msg
	// whatIf holds hypothetical blocks, one transaction each.
	whatIf [][]flash.DeviceBlock
}

func (in *inputs) lastEpoch() string { return in.probeMsgs[len(in.probeMsgs)-1].Epoch }

func generate(name string, sz sizes, seed int64) (*inputs, error) {
	switch name {
	case wlStorm:
		return genStorm(sz, seed)
	case wlWide:
		return genWide(sz, seed)
	case wlFlap:
		return genFlap(name, sz, sz.flapK, seed)
	case wlMixed:
		return genFlap(name, sz, sz.mixedK, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func genStorm(sz sizes, seed int64) (*inputs, error) {
	w := workload.LNetAPSP(sz.stormFabric)
	seq := w.SkewedChurn(stormChurn, stormSubspaces, stormHotFrac, seed)
	in := &inputs{
		workload: wlStorm, topo: w.Topo, layout: w.Layout, updates: len(seq),
		opts: []flash.Option{
			flash.WithTopo(w.Topo), flash.WithLayout(w.Layout),
			flash.WithSubspaces(stormSubspaces, ""),
			flash.WithBatch(stormBatch),
			flash.WithPredicateMode(flash.PredicateHybrid),
		},
	}
	for _, chunk := range workload.Chunk(seq, stormBlock) {
		blocks := make([]flash.DeviceBlock, 0, len(chunk))
		for _, fb := range chunk {
			m, err := wire.FromFib(fb.Device, "", fb.Updates)
			if err != nil {
				return nil, err
			}
			in.msgs = append(in.msgs, m)
			blocks = append(blocks, flash.DeviceBlock{Device: m.Device, Updates: m.Updates})
		}
		in.chunks = append(in.chunks, blocks)
	}
	for _, b := range w.Blocks {
		m, err := wire.FromFib(b.Device, "storm", b.Updates)
		if err != nil {
			return nil, err
		}
		in.probeMsgs = append(in.probeMsgs, m)
	}
	in.whatIf = whatIfBlocks(in.probeMsgs, w.Topo, seed)
	return in, nil
}

// wideFIBSeed fixes wide-fib's prefix set and the order in which the nine
// devices report. Two random FIBs of this size differ by up to 10 % in
// predicate operations per update, and two report orders of one FIB by
// 5 %, which would drown any change smaller than that. The run's seed
// therefore only orders the rules inside each report (Fast IMT sorts them
// again, so the model work is the same) and picks the what-if blocks.
const wideFIBSeed = 1

func genWide(sz sizes, seed int64) (*inputs, error) {
	w := workload.WidePrefixFIB(topo.Internet2(), sz.wideRules, wideFIBSeed)
	in := &inputs{
		workload: wlWide, topo: w.Topo, layout: w.Layout,
		opts: []flash.Option{
			flash.WithTopo(w.Topo), flash.WithLayout(w.Layout),
			flash.WithChecks(flash.CheckSpec{Name: "loops", Kind: flash.CheckLoopFree}),
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, b := range w.Blocks {
		m, err := wire.FromFib(b.Device, "e1", b.Updates)
		if err != nil {
			return nil, err
		}
		// The default drop rule stays first (a table needs it before
		// anything else is installed); the prefixes follow in seeded order.
		rest := m.Updates[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		in.msgs = append(in.msgs, m)
		in.updates += len(m.Updates)
	}
	in.probeMsgs = in.msgs
	in.whatIf = whatIfBlocks(in.msgs, w.Topo, seed)
	return in, nil
}

// genFlap runs an OpenR simulation of k link flaps on the fabric and
// collects every agent message. Each flap fails a link and restores it
// half a second (virtual) later, so the stream has 2k+1 epochs and every
// switch reports in every one of them: verdicts are actually emitted.
// The seed picks which links flap, alternating between the two tiers.
func genFlap(name string, sz sizes, k int, seed int64) (*inputs, error) {
	g := topo.Fabric(sz.flapFabric)
	layout := hs.NewLayout(hs.Field{Name: "dst", Bits: 16})
	owners := g.NodesByRole(topo.RoleTor)
	sim := openr.New(g, hs.NewSpace(layout), owners, openr.DefaultOptions())

	// Only links on a ToR-to-ToR forwarding path are flapped. The
	// simulator installs the first of the equal-cost next hops, so most
	// fabric links carry nothing and failing one changes almost no rule;
	// the links in use are symmetric to one another within a tier, so
	// every seed reroutes about as much.
	inUse := make(map[[2]topo.NodeID]bool)
	for _, dst := range owners {
		nh := g.NextHopsToward(dst)
		for _, src := range owners {
			for cur := src; cur != dst && len(nh[cur]) > 0; cur = nh[cur][0] {
				a, b := cur, nh[cur][0]
				if a > b {
					a, b = b, a
				}
				inUse[[2]topo.NodeID{a, b}] = true
			}
		}
	}
	var edge, core [][2]topo.NodeID // tor–agg and agg–spine links
	for _, l := range g.Links() {
		a, b := l[0], l[1]
		if a > b {
			a, b = b, a
		}
		switch {
		case !inUse[[2]topo.NodeID{a, b}]:
		case g.Node(a).Role == topo.RoleTor || g.Node(b).Role == topo.RoleTor:
			edge = append(edge, l)
		default:
			core = append(core, l)
		}
	}
	if len(edge) == 0 || len(core) == 0 {
		return nil, fmt.Errorf("%s: fabric has no link in use in one of its tiers", name)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edge), func(i, j int) { edge[i], edge[j] = edge[j], edge[i] })
	rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	const second = openr.Time(1_000_000)
	at := openr.Time(10_000)
	for i := 0; i < k; i++ {
		l := edge[(i/2)%len(edge)]
		if i%2 == 1 {
			l = core[(i/2)%len(core)]
		}
		sim.FailLink(at, l[0], l[1])
		sim.RestoreLink(at+second/2, l[0], l[1])
		at += second
	}
	sim.Run(at + 10*second)

	checks := []flash.CheckSpec{{Name: "loops", Kind: flash.CheckLoopFree}}
	in := &inputs{workload: name, topo: g, layout: layout}
	if name == wlMixed {
		src, dst := owners[0], owners[len(owners)-1]
		val, plen := ownerPrefix(len(owners)-1, len(owners), layout.FieldBits("dst"))
		checks = append(checks, flash.CheckSpec{
			Name: "reach", Kind: flash.CheckReach,
			Space:   flash.MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: val, Len: plen}},
			Expr:    g.Node(src).Name + " .* >",
			Sources: []string{g.Node(src).Name},
			Dest:    g.Node(dst).Name,
		})
		in.opts = append(in.opts, flash.WithMemoryBudget(sz.memoryBudget))
	}
	in.opts = append(in.opts, flash.WithTopo(g), flash.WithLayout(layout), flash.WithChecks(checks...))
	for _, m := range sim.Messages() {
		wm, err := wire.FromFib(m.Msg.Device, string(m.Msg.Epoch), m.Msg.Updates)
		if err != nil {
			return nil, err
		}
		in.msgs = append(in.msgs, wm)
		in.updates += len(wm.Updates)
	}
	in.probeMsgs = in.msgs
	in.whatIf = whatIfBlocks(in.msgs, g, seed)
	return in, nil
}

// ownerPrefix mirrors the generators' prefix assignment: owner i of n gets
// a fixed-length prefix partition of the dst field.
func ownerPrefix(i, n, width int) (value uint64, plen int) {
	plen = 1
	for 1<<uint(plen) < n {
		plen++
	}
	return uint64(i) << uint(width-plen), plen
}

// whatIfBlocks derives 64 hypothetical transactions from the stream's own
// rules: each overrides one installed prefix rule on one device with a
// higher-priority copy that forwards to another neighbour.
func whatIfBlocks(msgs []flash.Msg, g *topo.Graph, seed int64) [][]flash.DeviceBlock {
	const n = 64
	rng := rand.New(rand.NewSource(seed ^ 0x77686174))
	var out [][]flash.DeviceBlock
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		m := msgs[rng.Intn(len(msgs))]
		nbrs := g.Neighbors(m.Device)
		if len(m.Updates) < 2 || len(nbrs) == 0 {
			continue
		}
		u := m.Updates[1+rng.Intn(len(m.Updates)-1)]
		if u.Op != fib.Insert || len(u.Rule.Desc) == 0 || u.Rule.Desc[0].Len == 0 {
			continue
		}
		r := u.Rule
		r.ID = int64(1)<<40 + int64(len(out))
		r.Pri++
		r.Action = fib.Forward(nbrs[rng.Intn(len(nbrs))])
		out = append(out, []flash.DeviceBlock{{Device: m.Device, Updates: []flash.Update{{Op: fib.Insert, Rule: r}}}})
	}
	return out
}
