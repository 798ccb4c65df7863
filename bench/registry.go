package main

// The benchmark's own registry: the workloads and the metrics every run
// emits. BENCHMARK.json at the root of the repository describes the same
// lists for the driver; bench_test.go asserts the two are equal.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse (0 for per-layer
// metrics, which are not gated). Layer and Moves document which module
// the metric observes and which end-to-end metric it should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Layer  string
	Moves  string
}

// Workload names. Later issues cite these.
const (
	wlStorm = "storm-model"
	wlWide  = "wide-fib"
	wlFlap  = "epoch-flap"
	wlMixed = "serve-mixed"
)

var workloads = []workloadSpec{
	{wlStorm, "fat-tree FIB insert storm + skewed churn through ModelBuilder (hybrid atoms, 8 subspaces): imt, atoms and sched do the work, ce2d/wire/serve none"},
	{wlWide, "nine 32-bit random-prefix FIBs as one epoch over loopback TCP into flash.Server (BDD, loop check): the BDD engine dominates, frames are few and huge"},
	{wlFlap, "OpenR link flaps on a 96-switch fabric, ~100 small messages per epoch over loopback, saturation then fixed-rate open loop: ce2d, serve and small-frame wire dominate"},
	{wlMixed, "the flap stream with a reach check and a memory budget while a reader paces what-ifs and checkpoints beside the feed, then restore + replay: readers, GC and serialisation beside writers"},
}

// End-to-end metrics: what a user of the system sees. Every workload
// reports every one of them with -trace 0.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "verdict_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "verdict_ms_p99", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "cpu_ms_per_kupdate", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "allocs_per_update", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "whatif_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "checkpoint_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics: one module each, measured from outside by timing
// calls into its exported functions on the workload's own inputs
// (layers.go) or read from public accessors and, in the traced run, the
// obs registry. Every workload reports every one of them with -trace 1;
// a layer the workload does not use reads 0.
var perLayer = []metricSpec{
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower", Layer: "wire", Moves: "verdict_ms_p50, allocs_per_update on epoch-flap"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower", Layer: "wire", Moves: "verdict_ms_p50 on epoch-flap"},
	{Name: "wire.decode_allocs_per_msg", Unit: "count", Better: "lower", Layer: "wire", Moves: "allocs_per_update on epoch-flap"},
	{Name: "wire.bytes_per_update", Unit: "B", Better: "lower", Layer: "wire", Moves: "verdict_ms_p50 on epoch-flap"},
	{Name: "wire.ack_us_p50", Unit: "us", Better: "lower", Layer: "wire", Moves: "verdict_ms_p50 on epoch-flap"},
	{Name: "serve.overhead_us_per_msg", Unit: "us", Better: "lower", Layer: "serve", Moves: "verdict_ms_p50, updates_per_s on epoch-flap"},
	{Name: "serve.handle_ns_p50", Unit: "ns", Better: "lower", Layer: "serve", Moves: "verdict_ms_p50 on epoch-flap"},
	{Name: "sched.dispatch_ns_per_task", Unit: "ns", Better: "lower", Layer: "sched", Moves: "updates_per_s on storm-model"},
	{Name: "sched.steals", Unit: "count", Better: "higher", Layer: "sched", Moves: "updates_per_s on storm-model"},
	{Name: "sched.speedup_2w", Unit: "x", Better: "higher", Layer: "sched", Moves: "updates_per_s on storm-model while cpu_ms_per_kupdate stays flat"},
	{Name: "hs.compile_ns_per_rule", Unit: "ns", Better: "lower", Layer: "hs", Moves: "updates_per_s on wide-fib, epoch-flap"},
	{Name: "hs.compile_hit_ns_per_rule", Unit: "ns", Better: "lower", Layer: "hs", Moves: "updates_per_s on wide-fib, epoch-flap"},
	{Name: "imt.ns_per_update", Unit: "ns", Better: "lower", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "imt.allocs_per_update", Unit: "count", Better: "lower", Layer: "imt", Moves: "allocs_per_update on storm-model"},
	{Name: "imt.map_ms", Unit: "ms", Better: "lower", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "imt.reduce_ms", Unit: "ms", Better: "lower", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "imt.apply_ms", Unit: "ms", Better: "lower", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "imt.aggregation_ratio", Unit: "x", Better: "higher", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "imt.batch_coalesced_frac", Unit: "frac", Better: "higher", Layer: "imt", Moves: "updates_per_s on storm-model"},
	{Name: "pred.ops_per_update", Unit: "count", Better: "lower", Layer: "pred", Moves: "updates_per_s on every workload"},
	{Name: "pred.bdd_ns_per_op", Unit: "ns", Better: "lower", Layer: "bdd", Moves: "updates_per_s, peak_rss_mb on wide-fib"},
	{Name: "pred.atoms_ns_per_op", Unit: "ns", Better: "lower", Layer: "atoms", Moves: "updates_per_s on storm-model"},
	{Name: "pred.cache_hit_rate", Unit: "frac", Better: "higher", Layer: "pred", Moves: "updates_per_s on wide-fib"},
	{Name: "pred.live_nodes", Unit: "count", Better: "lower", Layer: "pred", Moves: "peak_rss_mb on wide-fib"},
	{Name: "pred.gc_runs", Unit: "count", Better: "lower", Layer: "pred", Moves: "verdict_ms_p99 on serve-mixed"},
	{Name: "pred.gc_reclaimed_nodes", Unit: "count", Better: "higher", Layer: "pred", Moves: "verdict_ms_p99 on serve-mixed"},
	{Name: "ce2d.receive_us_p50", Unit: "us", Better: "lower", Layer: "ce2d", Moves: "updates_per_s, verdict_ms_p50 on epoch-flap, serve-mixed"},
	{Name: "ce2d.receive_us_p95", Unit: "us", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p99 on epoch-flap, serve-mixed"},
	{Name: "ce2d.verifier_create_ms_p50", Unit: "ms", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p99 on epoch-flap, serve-mixed (predicted dominant term)"},
	{Name: "ce2d.verifiers_created", Unit: "count", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p99 on epoch-flap"},
	{Name: "ce2d.queue_depth_end", Unit: "count", Better: "lower", Layer: "ce2d", Moves: "peak_rss_mb, verdict_ms_p99 on epoch-flap"},
	{Name: "ce2d.events_per_msg", Unit: "count", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p50 on epoch-flap"},
	{Name: "ce2d.early_sync_frac", Unit: "frac", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p50 on epoch-flap (Fig. 9)"},
	{Name: "ce2d.straggler_wait_ms_p95", Unit: "ms", Better: "lower", Layer: "ce2d", Moves: "verdict_ms_p99 on epoch-flap"},
	{Name: "reach.sync_ns_per_call", Unit: "ns", Better: "lower", Layer: "reach", Moves: "verdict_ms_p50 on serve-mixed"},
	{Name: "reach.dgq_vs_mt", Unit: "x", Better: "lower", Layer: "reach", Moves: "verdict_ms_p50 on serve-mixed (Fig. 12)"},
	{Name: "bus.events", Unit: "count", Better: "lower", Layer: "verdictbus", Moves: "nothing unless drops appear"},
	{Name: "bus.dropped_frac", Unit: "frac", Better: "lower", Layer: "verdictbus", Moves: "failed on serve-mixed"},
	{Name: "snapshot.capture_us_p50", Unit: "us", Better: "lower", Layer: "snapshot", Moves: "whatif_ms_p50; verdict_ms_p99 on serve-mixed"},
	{Name: "snapshot.apply_ms_p50", Unit: "ms", Better: "lower", Layer: "snapshot", Moves: "whatif_ms_p50"},
	{Name: "snapshot.live_max", Unit: "count", Better: "lower", Layer: "snapshot", Moves: "peak_rss_mb on serve-mixed"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower", Layer: "ckpt", Moves: "checkpoint_ms_p50, recover_s"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower", Layer: "ckpt", Moves: "recover_s"},
	{Name: "ckpt.replay_ms", Unit: "ms", Better: "lower", Layer: "ckpt", Moves: "recover_s"},
	{Name: "rt.gc_cpu_frac", Unit: "frac", Better: "lower", Layer: "runtime", Moves: "updates_per_s everywhere"},
	{Name: "rt.heap_mb_end", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb"},
	{Name: "gen.lag_ms_max", Unit: "ms", Better: "lower", Layer: "generator", Moves: "validity of verdict_ms_*"},
	{Name: "e2e.verdict_ms_p95", Unit: "ms", Better: "lower", Layer: "generator", Moves: "diagnostic, not gated"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", Moves: "updates_per_s when WithMetrics is on"},
}

// exactCounts are the per-layer metrics that count work rather than time
// it: -selfcheck requires two runs with the same seed to agree on them to
// the last digit. The value lists the workloads on which the program
// itself is deterministic; ce2d back-fills a new epoch's verifier in map
// iteration order, so predicate-op counts on the epoch streams vary from
// run to run at the seed commit and are not held to equality there.
var exactCounts = map[string][]string{
	"pred.ops_per_update":    {wlStorm, wlWide},
	"imt.aggregation_ratio":  {wlStorm, wlWide, wlFlap, wlMixed},
	"ce2d.early_sync_frac":   {wlStorm, wlWide, wlFlap, wlMixed},
	"ce2d.verifiers_created": {wlStorm, wlWide, wlFlap, wlMixed},
}

func findMetric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
