package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	flash "repro"
)

// value is one reported metric. Timings carry the sample they summarise;
// the unit is filled in from the registry when the report is assembled.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reasons   []string           `json:"reasons,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
	Outcomes  map[string]outcome `json:"outcomes"`
	Env       map[string]string  `json:"env"`
}

// summarise reports the median of a sample with its quartiles and size.
func summarise(xs []float64) value {
	return percentile(xs, 0.5)
}

// percentile reports the q-quantile of a latency sample.
func percentile(xs []float64, q float64) value {
	return value{Value: quantile(xs, q), N: len(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runner carries what every step of a run shares.
type runner struct {
	name    string
	sz      sizes
	seed    int64
	seconds float64
	tmp     string // scratch directory inside the checkout
	tr      *tracer
	tally   tally
	in      *inputs
	want    outcome // what every measured round must reproduce
	probe   probeResult
	metrics map[string]value
	outs    map[string]outcome
}

func (r *runner) set(name string, v value) { r.metrics[name] = v }

// round is what one measured pass over the stream yields.
type round struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	latency []time.Duration
}

func (r *runner) perUpdate(rounds []round) (tput, cpuMs, allocs []float64) {
	for _, rd := range rounds {
		u := float64(r.in.updates)
		tput = append(tput, u/rd.wall.Seconds())
		cpuMs = append(cpuMs, ms(rd.cpu)/(u/1000))
		allocs = append(allocs, float64(rd.mallocs)/u)
	}
	return tput, cpuMs, allocs
}

// measured wraps one pass in resource readings. The collector runs first
// so a round does not pay for the previous round's garbage.
func measured(pass func() ([]time.Duration, error)) (round, error) {
	runtime.GC()
	u0 := readUsage()
	lat, err := pass()
	u1 := readUsage()
	return round{wall: u1.wall.Sub(u0.wall), cpu: u1.cpu - u0.cpu, mallocs: u1.mallocs - u0.mallocs, latency: lat}, err
}

// ---- storm-model ----

// stormPass applies the whole storm to a fresh ModelBuilder, one
// ApplyBlock per 128-update chunk, one caller, closed loop.
func (r *runner) stormPass(opts []flash.Option, tr *tracer) (*flash.ModelBuilder, []time.Duration, error) {
	b := flash.NewModelBuilder(opts...)
	lat := make([]time.Duration, 0, len(r.in.chunks))
	for i, blocks := range r.in.chunks {
		t0 := time.Now()
		if err := b.ApplyBlock(blocks); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		lat = append(lat, t1.Sub(t0))
		if tr != nil {
			tr.add("builder.apply", fmt.Sprint(i), tr.add("block", fmt.Sprint(i), 0, t0, t1), t0, t1)
		}
	}
	if err := b.Flush(); err != nil {
		return nil, nil, err
	}
	return b, lat, nil
}

func (r *runner) stormRound(opts []flash.Option, tr *tracer) (round, *flash.ModelBuilder, error) {
	var b *flash.ModelBuilder
	rd, err := measured(func() (lat []time.Duration, err error) {
		b, lat, err = r.stormPass(opts, tr)
		return lat, err
	})
	if err != nil {
		return rd, nil, err
	}
	r.tally.ok(len(r.in.chunks))
	got, err := builderOutcome(b, r.in)
	if err != nil {
		return rd, nil, err
	}
	r.tally.expect("storm-model round vs reference builder", got, r.want)
	return rd, b, nil
}

// stormReference builds the same model the slow way: BDD predicates, one
// worker, no batching.
func (r *runner) stormReference() error {
	ref := flash.NewModelBuilder(flash.WithTopo(r.in.topo), flash.WithLayout(r.in.layout),
		flash.WithSubspaces(stormSubspaces, ""), flash.WithWorkers(1))
	for _, blocks := range r.in.chunks {
		if err := ref.ApplyBlock(blocks); err != nil {
			return err
		}
	}
	var err error
	r.want, err = builderOutcome(ref, r.in)
	r.outs["model"] = r.want
	return err
}

// ---- System workloads over loopback ----

// serveRound runs one pass of the stream through a fresh server and
// checks what came back against the reference.
func (r *runner) serveRound(opts []flash.Option, tr *tracer, pass func(h *harness) ([]time.Duration, error)) (round, *harness, error) {
	h, err := startHarness(opts, tr)
	if err != nil {
		return round{}, nil, err
	}
	rd, err := measured(func() ([]time.Duration, error) { return pass(h) })
	if err != nil {
		h.close()
		return rd, nil, err
	}
	r.tally.ok(len(r.in.msgs))
	r.checkServed(h)
	return rd, h, nil
}

// checkServed compares a finished round with the in-process reference:
// same final model, same verdict multiset, and at least one verdict.
func (r *runner) checkServed(h *harness) {
	got, err := systemOutcome(h.sys, r.in.lastEpoch(), h.takeResults())
	if err != nil {
		r.tally.fail("%s: fingerprint: %v", r.name, err)
		return
	}
	r.tally.expect(r.name+" loopback round vs in-process reference", got, r.want)
	if got.Verdicts == 0 {
		r.tally.fail("%s: a check is configured but no verdict was emitted", r.name)
	}
	if q := h.srv.QuarantinedDevices(); len(q) > 0 {
		r.tally.fail("%s: %d devices quarantined", r.name, len(q))
	}
}

// untilElapsed repeats pass until budget has been spent, at least once.
func untilElapsed(budget time.Duration, pass func() error) error {
	start := time.Now()
	for {
		if err := pass(); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// measure runs the workload's timed phases for about r.seconds and sets
// updates_per_s, verdict_ms_*, cpu_ms_per_kupdate and allocs_per_update.
func (r *runner) measure() error {
	budget := time.Duration(r.seconds * float64(time.Second))
	var closed []round          // saturation / closed-loop rounds
	var latency []time.Duration // the samples verdict_ms_* summarise
	switch r.name {
	case wlStorm:
		err := untilElapsed(budget, func() error {
			rd, _, err := r.stormRound(r.in.opts, nil)
			closed = append(closed, rd)
			latency = append(latency, rd.latency...)
			return err
		})
		if err != nil {
			return err
		}
	case wlWide:
		err := untilElapsed(budget, func() error {
			rd, h, err := r.serveRound(r.in.opts, nil, func(h *harness) ([]time.Duration, error) {
				return h.stepwise(r.in.msgs)
			})
			if err != nil {
				return err
			}
			closed = append(closed, rd)
			latency = append(latency, rd.latency...)
			return h.close()
		})
		if err != nil {
			return err
		}
	case wlFlap, wlMixed:
		// Phase A, closed loop: capacity. Phase B, open loop at the fixed
		// rate: latency. serve-mixed runs its reader beside both.
		err := untilElapsed(budget*35/100, func() error {
			rd, err := r.flapRound(r.in.opts, nil, true)
			closed = append(closed, rd.round)
			return err
		})
		if err != nil {
			return err
		}
		var lagMax time.Duration
		var reads readSide
		var recov []recovery
		err = untilElapsed(budget*65/100, func() error {
			rd, err := r.flapRound(r.in.opts, nil, false)
			if err != nil {
				return err
			}
			latency = append(latency, rd.latency...)
			if rd.lagMax > lagMax {
				lagMax = rd.lagMax
			}
			reads.merge(rd.reads)
			recov = append(recov, rd.recoveries...)
			return nil
		})
		if err != nil {
			return err
		}
		if p50 := quantile(durationsMs(latency), 0.5); ms(lagMax) > p50 {
			// The guide's validity rule for an open loop: a generator
			// that ran later than the median latency measured itself.
			fmt.Fprintf(os.Stderr, "warning: %s: generator lag max %.3f ms exceeds verdict_ms_p50 %.3f ms\n", r.name, ms(lagMax), p50)
		}
		if r.name == wlMixed {
			r.set("whatif_ms_p50", summarise(reads.whatIfMs))
			r.set("checkpoint_ms_p50", summarise(reads.ckptMs))
			r.set("recover_s", summarise(seconds(recov, recovery.total)))
		}
	}
	tput, cpuMs, allocs := r.perUpdate(closed)
	lat := durationsMs(latency)
	fmt.Fprintf(os.Stderr, "%s: %d closed-loop rounds of %d messages / %d updates (median %.0f msgs/s); %d latency samples, p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms\n",
		r.name, len(closed), len(r.in.msgs), r.in.updates, median(tput)*float64(len(r.in.msgs))/float64(r.in.updates),
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99))
	r.set("updates_per_s", summarise(tput))
	r.set("cpu_ms_per_kupdate", summarise(cpuMs))
	r.set("allocs_per_update", summarise(allocs))
	r.set("verdict_ms_p50", percentile(lat, 0.50))
	r.set("verdict_ms_p99", percentile(lat, 0.99))
	if !tailSupported(len(lat), 0.99) {
		fmt.Fprintf(os.Stderr, "note: %s: only %d latency samples; fewer than ten lie beyond p99\n", r.name, len(lat))
	}
	return nil
}

// flapResult is one epoch-flap / serve-mixed round.
type flapResult struct {
	round
	lagMax     time.Duration
	reads      readSide
	recoveries []recovery
}

// flapRound feeds the link-flap stream through a fresh server: closed
// loop (saturate) or open loop at the fixed rate. On serve-mixed a reader
// goroutine paces what-ifs and checkpoints beside the feed and, after an
// open-loop pass, the model is recovered from the checkpoint cut at
// probeCut of the stream.
func (r *runner) flapRound(opts []flash.Option, tr *tracer, saturate bool) (flapResult, error) {
	var out flapResult
	var rd *reader
	recoverDir := filepath.Join(r.tmp, "recover")
	cutAt := int(float64(len(r.in.msgs)) * r.sz.probeCut)
	rnd, h, err := r.serveRound(opts, tr, func(h *harness) ([]time.Duration, error) {
		if r.name == wlMixed {
			var err error
			if rd, err = startReader(h, r.in, r.sz, filepath.Join(r.tmp, "ckpt"), recoverDir, tr); err != nil {
				return nil, err
			}
			defer rd.stop()
		}
		if saturate {
			return nil, h.saturate(r.in.msgs)
		}
		res, err := h.paced(r.in.msgs, r.sz.rateMsgsPerS, func(i int) {
			if rd != nil && i+1 == cutAt {
				rd.cutNow()
			}
		})
		out.lagMax = res.lagMax
		return res.latency, err
	})
	if err != nil {
		return out, err
	}
	defer h.close()
	out.round = rnd
	if rd == nil {
		return out, nil
	}
	out.reads = rd.stats.readSide
	r.tally.absorb(rd.stats.tally)
	if saturate {
		return out, nil
	}
	for i := 0; i < r.sz.probeRecover; i++ {
		// Recovery runs on the workload's plain options: a traced round's
		// registry must hold the served stream only, not the replays.
		rec, err := recoverFrom(recoverDir, r.in, -1, r.want.Fingerprint, tr)
		if err != nil {
			r.tally.fail("serve-mixed recover: %v", err)
			continue
		}
		r.tally.ok(1)
		out.recoveries = append(out.recoveries, rec)
	}
	return out, os.RemoveAll(recoverDir)
}

// ---- the run ----

// warm runs the workload's measured path once, untimed, so that set-up
// time includes reaching a warm process.
func (r *runner) warm() error {
	switch r.name {
	case wlStorm:
		_, _, err := r.stormPass(r.in.opts, nil)
		return err
	default:
		h, err := startHarness(r.in.opts, nil)
		if err != nil {
			return err
		}
		err = h.saturate(r.in.msgs)
		if cerr := h.close(); err == nil {
			err = cerr
		}
		return err
	}
}

// setup generates the inputs from the seed, builds the system and warms
// it, sz.setupReps times over, and reports the median.
func (r *runner) setup() error {
	var secs []float64
	for i := 0; i < r.sz.setupReps; i++ {
		t0 := time.Now()
		in, err := generate(r.name, r.sz, r.seed)
		if err != nil {
			return err
		}
		r.in = in
		if err := r.warm(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set("setup_s", summarise(secs))
	return nil
}

// reference computes, untimed and in process, what the measured rounds
// must reproduce, and runs the idle serving probe on the same system.
func (r *runner) reference() error {
	if r.name == wlStorm {
		if err := r.stormReference(); err != nil {
			return err
		}
	}
	p, err := runProbe(r.in, r.sz, filepath.Join(r.tmp, "probe"), r.tr, &r.tally)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.probe = p
	r.outs["system"] = p.outcome
	if r.name != wlStorm {
		r.want = p.outcome
		if p.outcome.Verdicts == 0 {
			r.tally.fail("%s: the reference run emitted no verdict", r.name)
		}
	}
	if r.name != wlMixed {
		r.set("whatif_ms_p50", summarise(p.whatIfMs))
		r.set("checkpoint_ms_p50", summarise(p.ckptMs))
		r.set("recover_s", summarise(seconds(p.recoveries, recovery.total)))
	}
	return nil
}

// checkGolden holds the default seed's outcomes to bench/golden.json.
func (r *runner) checkGolden(dir string, update bool) error {
	if r.seed != defaultSeed || r.sz != fullSizes {
		return nil
	}
	if update {
		return updateGolden(dir, r.name, r.outs)
	}
	g, err := loadGolden(dir)
	if err != nil {
		return err
	}
	for key, got := range r.outs {
		r.tally.expect(r.name+" "+key+" vs golden.json", got, g[r.name][key])
	}
	return nil
}

func environment() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"network":    "host loopback (127.0.0.1), one TCP connection",
	}
}

// runWorkload is one run as the driver asks for it: set up, verify,
// measure for about seconds, and report either the end-to-end metrics
// (trace false) or the per-layer metrics (trace true).
func runWorkload(name string, sz sizes, seed int64, seconds float64, trace bool, dir string, updateGold bool) (*report, error) {
	tmp := filepath.Join(dir, "out", fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{name: name, sz: sz, seed: seed, seconds: seconds, tmp: tmp,
		metrics: make(map[string]value), outs: make(map[string]outcome)}
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	if trace {
		r.tr = newTracer() // set-up stays untraced; the probe's spans are wanted
	}
	if err := r.reference(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if trace {
		if err := r.layers(dir); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", name, err)
		}
	} else {
		if err := r.measure(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", value{Value: rss, N: 1})
	}
	if err := r.checkGolden(dir, updateGold); err != nil {
		return nil, fmt.Errorf("%s: golden: %w", name, err)
	}

	rep := &report{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Attempted: r.tally.attempted, Failed: r.tally.failed, Reasons: r.tally.reasons,
		Metrics: make(map[string]value), Outcomes: r.outs, Env: environment()}
	for _, m := range metricList(trace) {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		v.Unit = m.Unit
		rep.Metrics[m.Name] = v
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}
