package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	flash "repro"
	"repro/internal/atoms"
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

// Caps on how much of a stream a layer driver replays, so that a traced
// run stays well inside the driver's time limit.
const (
	capWireMsgs  = 4000
	capAckMsgs   = 400
	capRules     = 4000
	capSchedTask = 40000
)

// layerUse says which layers a workload exercises; a driver for an unused
// layer is skipped and its metrics read 0.
func layerUse(name string) (wireServeCE2D, reachLayer bool) {
	return name != wlStorm, name == wlMixed
}

// ---- obs registry helpers ----

// sumHist adds up every histogram called name anywhere under s.
func sumHist(s obs.Snapshot, name string) (sumNs, count int64) {
	if h, ok := s.Histograms[name]; ok {
		sumNs, count = h.SumNs, h.Count
	}
	for _, sub := range s.Subs {
		a, b := sumHist(sub, name)
		sumNs, count = sumNs+a, count+b
	}
	return sumNs, count
}

// sumValue adds up every counter or gauge called name anywhere under s.
func sumValue(s obs.Snapshot, name string) int64 {
	v := s.Counters[name] + s.Gauges[name]
	for _, sub := range s.Subs {
		v += sumValue(sub, name)
	}
	return v
}

// maxHistP95 is the largest p95 among histograms called name under s.
func maxHistP95(s obs.Snapshot, name string) float64 {
	var out float64
	if h, ok := s.Histograms[name]; ok {
		out = h.P95Ns
	}
	for _, sub := range s.Subs {
		if v := maxHistP95(sub, name); v > out {
			out = v
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// driverSpan records one span per call of a layer driver.
func (r *runner) driverSpan(layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.tr.add("driver."+layer, layer, 0, t0, time.Now())
	return err
}

// ---- the traced run ----

// layers is the -trace 1 run: the workload once more with WithMetrics on
// and the benchmark's own spans recorded, then every layer driver on the
// workload's inputs. It sets every per-layer metric and writes the trace.
func (r *runner) layers(dir string) error {
	for _, m := range perLayer {
		r.set(m.Name, value{}) // unused layers read 0
	}
	reg := obs.NewRegistry("bench")
	traced := append(append([]flash.Option(nil), r.in.opts...), flash.WithMetrics(reg))

	var split serverSplit
	var plain, withObs round // the same closed-loop pass, metrics off and on
	var stats flash.StatsSnapshot
	root := "msg"
	switch r.name {
	case wlStorm:
		root = "block"
		var err error
		if plain, _, err = r.stormRound(r.in.opts, nil); err != nil {
			return err
		}
		var b *flash.ModelBuilder
		if withObs, b, err = r.stormRound(traced, r.tr); err != nil {
			return err
		}
		stats = b.StatsSnapshot()
		r.set("e2e.verdict_ms_p95", percentile(durationsMs(withObs.latency), 0.95))
	case wlWide:
		pass := func(h *harness) ([]time.Duration, error) { return h.stepwise(r.in.msgs) }
		var h *harness
		var err error
		if plain, h, err = r.serveRound(r.in.opts, nil, pass); err != nil {
			return err
		}
		if err := h.close(); err != nil {
			return err
		}
		if withObs, h, err = r.serveRound(traced, r.tr, pass); err != nil {
			return err
		}
		stats = h.sys.StatsSnapshot()
		if err := h.close(); err != nil {
			return err
		}
		r.set("e2e.verdict_ms_p95", percentile(durationsMs(withObs.latency), 0.95))
	default:
		a, err := r.flapRound(r.in.opts, nil, true)
		if err != nil {
			return err
		}
		plain = a.round
		// Saturation with metrics on prices the registry; its spans would
		// overlap (the stream is pipelined), so only the paced pass below
		// is traced message by message.
		satOpts := append(append([]flash.Option(nil), r.in.opts...), flash.WithMetrics(obs.NewRegistry("saturate")))
		b, err := r.flapRound(satOpts, nil, true)
		if err != nil {
			return err
		}
		withObs = b.round
		p, err := r.flapRound(traced, r.tr, false)
		if err != nil {
			return err
		}
		lat := durationsMs(p.latency)
		r.set("gen.lag_ms_max", value{Value: ms(p.lagMax), N: len(lat)})
		r.set("e2e.verdict_ms_p95", percentile(lat, 0.95))
		if r.name == wlMixed {
			r.setReadSide(p.reads, p.recoveries)
		}
	}
	snap := reg.Snapshot()
	split.handleNs, _ = sumHist(snap, "handle_ns")
	split.feedNs, _ = sumHist(snap, "feed_ns")
	mapNs, _ := sumHist(snap, "map_ns")
	reduceNs, _ := sumHist(snap, "reduce_ns")
	applyNs, _ := sumHist(snap, "apply_ns")
	split.imtNs = mapNs + reduceNs + applyNs

	u := float64(r.in.updates)
	r.set("obs.trace_overhead_pct", value{Value: 100 * (withObs.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds(), N: 1})
	r.set("imt.map_ms", value{Value: float64(mapNs) / 1e6, N: 1})
	r.set("imt.reduce_ms", value{Value: float64(reduceNs) / 1e6, N: 1})
	r.set("imt.apply_ms", value{Value: float64(applyNs) / 1e6, N: 1})
	r.set("imt.aggregation_ratio", value{Value: ratio(float64(sumValue(snap, "atomic_overwrites")), float64(sumValue(snap, "aggregated_overwrites"))), N: 1})
	r.set("imt.batch_coalesced_frac", value{Value: ratio(float64(sumValue(snap, "batch_coalesced")), float64(sumValue(snap, "blocks"))), N: 1})
	r.set("sched.steals", value{Value: float64(sumValue(snap, "steals")), N: 1})
	r.set("rt.gc_cpu_frac", value{Value: readUsage().gcCPU, N: 1})
	if hp, ok := snap.Hist("serve", "handle_ns"); ok {
		r.set("serve.handle_ns_p50", value{Value: hp.P50Ns, N: int(hp.Count)})
	}
	r.set("ce2d.straggler_wait_ms_p95", value{Value: maxHistP95(snap, "straggler_wait_ns") / 1e6, N: 1})
	r.set("ce2d.queue_depth_end", value{Value: float64(sumValue(snap, "queue_depth")), N: 1})
	if r.name == wlStorm || r.name == wlWide {
		// One engine set lives for the whole pass, so the public
		// accessors give exact whole-run totals. On the epoch streams
		// they are read from the in-process run below instead.
		r.setEngineStats(stats, u)
	}

	if err := r.scaling(plain); err != nil {
		return err
	}
	if err := r.drivers(); err != nil {
		return err
	}
	r.set("rt.heap_mb_end", value{Value: heapMB(), N: 1})

	path, err := r.tr.write(dir+"/out", r.name, r.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(r.tr.spans), path)
	split.wireRTTNs = int64(r.metrics["wire.ack_us_p50"].Value * 1e3)
	split.workers = int64(stats.Scheduler.Workers)
	printLayerTable(os.Stderr, r.tr.spans, root, split)
	return nil
}

// setReadSide reports the snapshot and ckpt layers from what the reader
// (serve-mixed) or the idle probe (elsewhere) measured.
func (r *runner) setReadSide(rs readSide, recs []recovery) {
	r.set("snapshot.capture_us_p50", summarise(rs.captureUs))
	r.set("snapshot.apply_ms_p50", summarise(rs.applyMs))
	r.set("snapshot.live_max", value{Value: float64(rs.liveMax), N: 1})
	r.set("ckpt.bytes", value{Value: float64(rs.ckptBytes), N: 1})
	r.set("ckpt.restore_ms", summarise(scaled(seconds(recs, func(x recovery) time.Duration { return x.restore }), 1e3)))
	r.set("ckpt.replay_ms", summarise(scaled(seconds(recs, func(x recovery) time.Duration { return x.replay }), 1e3)))
}

func (r *runner) setEngineStats(st flash.StatsSnapshot, updates float64) {
	r.set("pred.ops_per_update", value{Value: float64(st.PredicateOps) / updates, N: 1})
	r.set("pred.cache_hit_rate", value{Value: st.Cache.HitRate(), N: 1})
	r.set("pred.live_nodes", value{Value: float64(st.MemoryNodes), N: 1})
	r.set("pred.gc_runs", value{Value: float64(st.GC.Runs), N: 1})
	r.set("pred.gc_reclaimed_nodes", value{Value: float64(st.GC.ReclaimedNodes), N: 1})
}

// scaling runs the stream in process at one and two scheduler workers:
// their ratio is sched.speedup_2w (the one-worker run is the
// single-threaded baseline), and the loopback pass minus the in-process
// pass, per message, is what wire and serve add.
func (r *runner) scaling(loopback round) error {
	run := func(workers int) (time.Duration, flash.StatsSnapshot, error) {
		opts := append(append([]flash.Option(nil), r.in.opts...), flash.WithWorkers(workers))
		runtime.GC()
		if r.name == wlStorm {
			t0 := time.Now()
			b, _, err := r.stormPass(opts, nil)
			if err != nil {
				return 0, flash.StatsSnapshot{}, err
			}
			return time.Since(t0), b.StatsSnapshot(), nil
		}
		sys, err := flash.NewSystem(opts...)
		if err != nil {
			return 0, flash.StatsSnapshot{}, err
		}
		sub := sys.SubscribeVerdicts("", 1<<16)
		defer sub.Cancel()
		t0 := time.Now()
		if _, err := feedAll(sys, r.in.msgs, nil); err != nil {
			return 0, flash.StatsSnapshot{}, err
		}
		wall := time.Since(t0)
		if workers == 2 {
			n := len(sub.Events())
			r.set("bus.events", value{Value: float64(n), N: 1})
			r.set("bus.dropped_frac", value{Value: ratio(float64(sub.Dropped()), float64(uint64(n)+sub.Dropped())), N: 1})
		}
		return wall, sys.StatsSnapshot(), nil
	}
	one, _, err := run(1)
	if err != nil {
		return err
	}
	two, st, err := run(2)
	if err != nil {
		return err
	}
	r.set("sched.speedup_2w", value{Value: one.Seconds() / two.Seconds(), N: 1})
	if r.name != wlStorm {
		r.set("serve.overhead_us_per_msg", value{Value: float64((loopback.wall - two).Microseconds()) / float64(len(r.in.msgs)), N: len(r.in.msgs)})
	}
	if r.name == wlFlap || r.name == wlMixed {
		r.setEngineStats(st, float64(r.in.updates))
	}
	return nil
}

// ---- layer drivers ----

func (r *runner) drivers() error {
	useNet, useReach := layerUse(r.name)
	steps := []struct {
		layer string
		on    bool
		run   func() error
	}{
		{"wire", useNet, r.driveWire},
		{"sched", true, r.driveSched},
		{"hs", true, r.driveCompile},
		{"imt", true, r.driveIMT},
		{"pred", true, r.drivePred},
		{"ce2d", useNet, r.driveCE2D},
		{"reach", useReach, r.driveReach},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		if err := r.driverSpan(s.layer, s.run); err != nil {
			return fmt.Errorf("%s driver: %w", s.layer, err)
		}
	}
	if r.name != wlMixed {
		// The idle probe of reference() ran traced; its spans are in the
		// trace and its timings are the snapshot and ckpt layer metrics.
		r.setReadSide(r.probe.readSide, r.probe.recoveries)
	}
	return nil
}

func capMsgs(msgs []flash.Msg, n int) []flash.Msg {
	if len(msgs) > n {
		return msgs[:n]
	}
	return msgs
}

// driveWire times the bare codec over a buffer and a Send→ack round trip
// against a wire.Server whose handler does nothing.
func (r *runner) driveWire() error {
	msgs := capMsgs(r.in.msgs, capWireMsgs)
	updates := 0
	for _, m := range msgs {
		updates += len(m.Updates)
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	t0 := time.Now()
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	encNs := time.Since(t0).Nanoseconds()
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	u0 := readUsage()
	for range msgs {
		if _, err := dec.Decode(); err != nil {
			return err
		}
	}
	u1 := readUsage()
	n := float64(len(msgs))
	r.set("wire.encode_ns_per_msg", value{Value: float64(encNs) / n, N: len(msgs)})
	r.set("wire.decode_ns_per_msg", value{Value: float64(u1.wall.Sub(u0.wall).Nanoseconds()) / n, N: len(msgs)})
	r.set("wire.decode_allocs_per_msg", value{Value: float64(u1.mallocs-u0.mallocs) / n, N: len(msgs)})
	r.set("wire.bytes_per_update", value{Value: ratio(float64(buf.Len()), float64(updates)), N: updates})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewServer(l, func(wire.Msg) error { return nil })
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-done
	}()
	cli, err := wire.NewClient(l.Addr().String(), wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var rtt []float64
	for _, m := range capMsgs(msgs, capAckMsgs) {
		t0 := time.Now()
		if err := cli.Send(m); err != nil {
			return err
		}
		if err := cli.WaitAcked(ctx); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("wire.ack_us_p50", summarise(rtt))
	return nil
}

// driveSched times Submit/Wait of empty tasks over eight homes.
func (r *runner) driveSched() error {
	const homes = 8
	p := sched.NewPool(0, homes)
	t0 := time.Now()
	for i := 0; i < capSchedTask; i += homes {
		for h := 0; h < homes; h++ {
			p.Submit(h, func() {})
		}
		p.Wait()
	}
	r.set("sched.dispatch_ns_per_task", value{Value: float64(time.Since(t0).Nanoseconds()) / capSchedTask, N: capSchedTask})
	return nil
}

// ruleDescs lists the stream's distinct match descriptors in arrival
// order, up to capRules.
func (r *runner) ruleDescs() []fib.MatchDesc {
	seen := make(map[fib.FieldMatch]bool)
	var out []fib.MatchDesc
	for _, m := range r.in.msgs {
		for _, u := range m.Updates {
			if len(u.Rule.Desc) != 1 || seen[u.Rule.Desc[0]] {
				continue
			}
			seen[u.Rule.Desc[0]] = true
			out = append(out, u.Rule.Desc)
			if len(out) == capRules {
				return out
			}
		}
	}
	return out
}

// driveCompile compiles every distinct match on a fresh hs.Space (cold)
// and then once more (the engine's caches warm).
func (r *runner) driveCompile() error {
	descs := r.ruleDescs()
	space := hs.NewSpace(r.in.layout)
	pass := func() float64 {
		t0 := time.Now()
		for _, d := range descs {
			space.Compile(d)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(descs))
	}
	r.set("hs.compile_ns_per_rule", value{Value: pass(), N: len(descs)})
	r.set("hs.compile_hit_ns_per_rule", value{Value: pass(), N: len(descs)})
	return nil
}

// compiled turns the stream into precompiled blocks on one BDD space, in
// the grouping the workload applies them (chunks on storm-model, one
// block per message elsewhere).
func (r *runner) compiled(space *hs.Space) [][]fib.Block {
	conv := func(dev fib.DeviceID, ups []flash.Update) fib.Block {
		b := fib.Block{Device: dev}
		for _, u := range ups {
			b.Updates = append(b.Updates, fib.Update{Op: u.Op, Rule: fib.Rule{
				ID: u.Rule.ID, Pri: u.Rule.Pri, Action: u.Rule.Action,
				Match: space.Compile(u.Rule.Desc), Desc: u.Rule.Desc,
			}})
		}
		return b
	}
	var out [][]fib.Block
	if r.name == wlStorm {
		for _, chunk := range r.in.chunks {
			var blocks []fib.Block
			for _, db := range chunk {
				blocks = append(blocks, conv(db.Device, db.Updates))
			}
			out = append(out, blocks)
		}
		return out
	}
	for _, m := range r.in.msgs {
		out = append(out, []fib.Block{conv(m.Device, m.Updates)})
	}
	return out
}

// driveIMT applies the precompiled stream to one Transformer over the
// whole header space: Fast IMT alone, no compile, no epochs, no verifier.
func (r *runner) driveIMT() error {
	space := hs.NewSpace(r.in.layout)
	batches := r.compiled(space)
	tr := imt.NewTransformer(space.E, pat.NewStore(), bdd.True)
	runtime.GC()
	u0 := readUsage()
	for _, blocks := range batches {
		if err := tr.ApplyBlock(blocks); err != nil {
			return err
		}
	}
	u1 := readUsage()
	n := float64(r.in.updates)
	r.set("imt.ns_per_update", value{Value: float64(u1.wall.Sub(u0.wall).Nanoseconds()) / n, N: r.in.updates})
	r.set("imt.allocs_per_update", value{Value: float64(u1.mallocs-u0.mallocs) / n, N: r.in.updates})
	return nil
}

// drivePred replays the same And/Not/Or/Diff sequence over the stream's
// rule predicates on each engine through the pred.Engine interface.
func (r *runner) drivePred() error {
	descs := r.ruleDescs()
	replay := func(e pred.Engine, preds []bdd.Ref) float64 {
		acc := bdd.False
		t0 := time.Now()
		for _, p := range preds {
			fresh := e.And(p, e.Not(acc))
			acc = e.Or(acc, fresh)
			e.Diff(acc, p)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(4*len(preds))
	}
	space := hs.NewSpace(r.in.layout)
	am := atoms.New(r.in.layout.TotalBits())
	onBDD := make([]bdd.Ref, len(descs))
	onAtoms := make([]bdd.Ref, len(descs))
	for i, d := range descs {
		onBDD[i] = space.Compile(d)
		ref, err := am.Compile(r.in.layout, d)
		if err != nil {
			return err
		}
		onAtoms[i] = ref
	}
	r.set("pred.bdd_ns_per_op", value{Value: replay(space.E, onBDD), N: 4 * len(descs)})
	r.set("pred.atoms_ns_per_op", value{Value: replay(am, onAtoms), N: 4 * len(descs)})
	return nil
}

// driveCE2D feeds the precompiled stream to one ce2d.Dispatcher over the
// whole header space with a loop-freedom check, timing every Receive.
func (r *runner) driveCE2D() error {
	space := hs.NewSpace(r.in.layout)
	batches := r.compiled(space)
	g := r.in.topo
	disp := ce2d.NewDispatcher(func(ce2d.Epoch) *ce2d.Verifier {
		return ce2d.NewVerifier(ce2d.Config{Topo: g, Engine: space.E, Universe: bdd.True,
			Checks: []ce2d.Check{{Name: "loops", Kind: ce2d.CheckLoopFree, Space: bdd.True}}})
	})
	var all, creating []float64
	events := 0
	reported := make(map[ce2d.Epoch]int) // messages of the epoch received so far
	var early []float64                  // share of devices synchronised at the epoch's first loop verdict
	decided := make(map[ce2d.Epoch]bool)
	for i, m := range r.in.msgs {
		before := disp.Stats().VerifiersCreated
		t0 := time.Now()
		evs, err := disp.Receive(ce2d.Msg{Device: m.Device, Epoch: ce2d.Epoch(m.Epoch), Updates: batches[i][0].Updates})
		dt := time.Since(t0)
		if err != nil {
			return err
		}
		all = append(all, float64(dt.Nanoseconds())/1e3)
		if disp.Stats().VerifiersCreated > before {
			creating = append(creating, ms(dt))
		}
		events += len(evs)
		e := ce2d.Epoch(m.Epoch)
		reported[e]++
		for _, ev := range evs {
			if ev.Event.Loop != ce2d.LoopUnknown && !decided[ev.Epoch] {
				decided[ev.Epoch] = true
				early = append(early, float64(reported[ev.Epoch])/float64(g.N()))
			}
		}
	}
	var sum float64
	for _, f := range early {
		sum += f
	}
	r.set("ce2d.receive_us_p50", percentile(all, 0.50))
	r.set("ce2d.receive_us_p95", percentile(all, 0.95))
	r.set("ce2d.verifier_create_ms_p50", summarise(creating))
	r.set("ce2d.verifiers_created", value{Value: float64(disp.Stats().VerifiersCreated), N: 1})
	r.set("ce2d.events_per_msg", value{Value: float64(events) / float64(len(r.in.msgs)), N: len(r.in.msgs)})
	r.set("ce2d.early_sync_frac", value{Value: ratio(sum, float64(len(early))), N: len(early)})
	return nil
}

// driveReach builds one verification graph per destination ToR for the
// expression serve-mixed checks, synchronises every device with its
// shortest-path next hop, and compares answering from the maintained
// decremental state (DGQ) with a full traversal (MT), as in Fig. 12.
func (r *runner) driveReach() error {
	g := r.in.topo
	tors := g.NodesByRole(topo.RoleTor)
	var syncNs, dgqNs, mtNs int64
	calls := 0
	for i, dst := range tors {
		dst := dst
		src := tors[(i+1)%len(tors)]
		expr, err := spec.Parse(g.Node(src).Name + " .* >")
		if err != nil {
			return err
		}
		vg := reach.NewVGraph(g, expr, []topo.NodeID{src}, func(n topo.NodeID) bool { return n == dst })
		nh := g.NextHopsToward(dst)
		for _, n := range g.Nodes() {
			st := reach.SyncState{Delivers: n.ID == dst}
			if n.ID != dst && len(nh[n.ID]) > 0 {
				st.NextHops = []topo.NodeID{nh[n.ID][0]}
			}
			t0 := time.Now()
			if err := vg.Synchronize(n.ID, st); err != nil {
				return err
			}
			t1 := time.Now()
			vg.AcceptReachable()
			t2 := time.Now()
			vg.AcceptReachableByTraversal()
			t3 := time.Now()
			syncNs += t1.Sub(t0).Nanoseconds()
			dgqNs += t2.Sub(t1).Nanoseconds()
			mtNs += t3.Sub(t2).Nanoseconds()
			calls++
		}
	}
	r.set("reach.sync_ns_per_call", value{Value: float64(syncNs) / float64(calls), N: calls})
	r.set("reach.dgq_vs_mt", value{Value: ratio(float64(dgqNs), float64(mtNs)), N: calls})
	return nil
}
