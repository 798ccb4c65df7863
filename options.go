package flash

import (
	"log"

	"repro/internal/obs"
)

// Option configures a ModelBuilder or System. Options are applied in
// order, so later options override earlier ones; a Config value is itself
// an Option (it replaces the whole configuration), which is why code
// written against the original struct API — NewSystem(Config{...}) —
// still compiles. New code should prefer the functional options:
//
//	sys, err := flash.NewSystem(
//	    flash.WithTopo(g),
//	    flash.WithLayout(layout),
//	    flash.WithSubspaces(4),
//	    flash.WithChecks(checks...),
//	    flash.WithMetrics(reg),
//	)
type Option interface {
	apply(*Config)
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// apply makes Config itself an Option: it replaces the configuration
// wholesale. This is the compile-compatibility bridge for the original
// struct-based API; put it first when mixing with other options.
//
// Deprecated: pass functional options (or WithConfig) to NewModelBuilder
// and NewSystem instead of a bare Config.
func (c Config) apply(dst *Config) { *dst = c }

// WithConfig replaces the whole configuration with cfg. It bridges the
// original struct-based API into the options API; apply it before any
// other option.
func WithConfig(cfg Config) Option { return cfg }

// WithTopo sets the network topology.
func WithTopo(g *Graph) Option {
	return optionFunc(func(c *Config) { c.Topo = g })
}

// WithLayout sets the packet header layout.
func WithLayout(l *Layout) Option {
	return optionFunc(func(c *Config) { c.Layout = l })
}

// WithSubspaces partitions the header space into n prefix subspaces of
// field (§3.4), each verified by its own parallel engine. n must be a
// power of two; field "" defaults to the layout's first field ("dst").
func WithSubspaces(n int, field string) Option {
	return optionFunc(func(c *Config) {
		c.Subspaces = n
		c.SubspaceField = field
	})
}

// WithSubspaceSet restricts a System to the given global subspace
// indices out of the WithSubspaces partition: only those workers are
// instantiated, with Result.Subspace, fingerprints, and checkpoints
// keeping the global numbering so disjoint subsets compose into the
// full-set answer (see Config.SubspaceSet). Empty restores the default
// of instantiating every subspace. ModelBuilder ignores the set.
func WithSubspaceSet(indices ...int) Option {
	return optionFunc(func(c *Config) {
		c.SubspaceSet = append([]int(nil), indices...)
	})
}

// WithChecks appends verification requirements (System only).
func WithChecks(checks ...CheckSpec) Option {
	return optionFunc(func(c *Config) { c.Checks = append(c.Checks, checks...) })
}

// WithPerUpdate forces per-update processing (the APKeep-style special
// case used by the ablation benchmarks).
func WithPerUpdate(on bool) Option {
	return optionFunc(func(c *Config) { c.PerUpdate = on })
}

// WithPredicateMode selects the predicate representation strategy (see
// Config.PredicateMode). PredicateBDD (the default) compiles every
// match into the sharded BDD engine. PredicateHybrid starts each
// subspace on Delta-net-style interval atoms — asymptotically cheaper
// while every installed rule is a pure prefix interval on the layout's
// first field — and converts the subspace to BDD, one way, the moment
// a rule arrives that atoms cannot represent (ternary match,
// multi-field match, or an interval-count explosion). Verdicts and
// model fingerprints are identical in both modes; only the cost model
// differs.
func WithPredicateMode(m PredicateMode) Option {
	return optionFunc(func(c *Config) { c.PredicateMode = m })
}

// WithSuccessors restricts the potential-path successor sets used by
// reachability checks (see Config.Succ).
func WithSuccessors(succ func(DeviceID) []DeviceID) Option {
	return optionFunc(func(c *Config) { c.Succ = succ })
}

// WithWorkers sets the number of scheduler workers that execute
// subspace tasks (see Config.Workers). n <= 0 (the default) selects
// GOMAXPROCS; the effective count never exceeds the subspace count.
// Subspace work is distributed by work stealing, so a skewed workload
// keeps all n workers busy instead of serializing behind the hot
// subspace's static owner.
func WithWorkers(n int) Option {
	return optionFunc(func(c *Config) { c.Workers = n })
}

// WithBatch bounds Fast IMT batching at n native updates (see
// Config.Batch): a ModelBuilder coalesces consecutive same-device
// blocks into one MR2 pass, and a Pipeline gulps consecutive same-epoch
// messages into one System.FeedBatch. n <= 1 (the default) disables
// batching; batches always flush at epoch boundaries and before model
// queries, so results are never delayed indefinitely and verdicts are
// identical to unbatched runs.
func WithBatch(n int) Option {
	return optionFunc(func(c *Config) { c.Batch = n })
}

// WithMemoryBudget bounds each subspace worker's live BDD node count
// (see Config.MemoryBudget): an engine grown past the budget runs an
// in-engine mark-and-sweep GC after the block that crossed it.
// Reclamation never changes models or verdicts — only when nodes are
// released. n <= 0 (the default) disables automatic reclamation.
func WithMemoryBudget(n int) Option {
	return optionFunc(func(c *Config) { c.MemoryBudget = n })
}

// WithMetrics attaches an observability registry. Every subsystem
// publishes under its own sub-registry — imt/subspace<i> for
// ModelBuilder workers, ce2d/subspace<i> (with a nested imt) for System
// workers, plus pipeline and wire when those components are used. A nil
// registry (the default) keeps every hot path at its zero-cost no-op.
func WithMetrics(r *obs.Registry) Option {
	return optionFunc(func(c *Config) { c.Metrics = r })
}

// WithLogger sets the logger used by the Pipeline, Server and admin
// components for operational messages (verification errors, connection
// teardown). Nil (the default) silences them.
func WithLogger(l *log.Logger) Option {
	return optionFunc(func(c *Config) { c.Logger = l })
}

// buildConfig folds options into a Config.
func buildConfig(opts []Option) Config {
	var cfg Config
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}
