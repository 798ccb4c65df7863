package flash

import (
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/bdd"
	"repro/internal/ce2d"
	"repro/internal/ckpt"
	"repro/internal/fib"
	"repro/internal/imt"
	"repro/internal/obs"
	"repro/internal/pat"
)

// This file is the serving-plane half of the checkpoint/restore
// subsystem (package ckpt holds the container format): capture walks
// every healthy subspace under the dispatch barrier and value-copies
// the durable state, so encoding and the fsync+rename dance happen
// after all locks are released and a periodic background checkpoint
// never blocks live ingest for longer than the copy.

// CheckpointInfo describes one completed checkpoint write.
type CheckpointInfo struct {
	// Path is the final (post-rename) checkpoint file.
	Path string
	// Bytes is the encoded container size.
	Bytes int
	// Subspaces counts the subspaces that had a live verifier and were
	// captured; the rest re-ingest from agent replays after a restore.
	Subspaces int
	// Streams counts the wire streams whose sequence state was captured
	// (0 for System.Checkpoint, which has no serving plane).
	Streams int
	// Took is the total capture+encode+fsync duration.
	Took time.Duration
}

// RestoreReport describes how a warm restart went.
type RestoreReport struct {
	// Path is the checkpoint the system was restored from.
	Path string
	// SkippedCorrupt counts newer candidates that were rejected —
	// corrupt, wrong version, or captured under a different config.
	SkippedCorrupt int
	// Subspaces counts subspaces rebuilt from the checkpoint.
	Subspaces int
	// Streams maps wire stream name → next expected sequence number at
	// capture time; the caller preloads the session layer with it
	// (wire.WithStreams) so agents resume from the checkpointed floor.
	Streams map[string]uint64
	// Took is the total load+rebuild duration.
	Took time.Duration
}

// configHash fingerprints the parts of a Config that determine ref
// meaning: the layout (BDD variable order), the subspace partition, and
// the compiled check set. A checkpoint captured under a different hash
// is untrustworthy — its refs would be reinterpreted — so restore skips
// it like a corrupt file.
func configHash(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "flash-ckpt-v1|subspaces=%d|field=%s|nvars=%d",
		cfg.Subspaces, cfg.SubspaceField, cfg.Layout.TotalBits())
	for _, f := range cfg.Layout.Fields() {
		fmt.Fprintf(h, "|field:%s/%d", f.Name, f.Bits)
	}
	for _, cs := range cfg.Checks {
		fmt.Fprintf(h, "|check:%s/%d/%s/%v/%s/%v/%v",
			cs.Name, cs.Kind, cs.Expr, cs.Sources, cs.Dest, cs.Dests, cs.ExitNodes)
	}
	return h.Sum64()
}

// ckptMetrics holds the checkpoint subsystem's observability handles.
// All of them resolve idempotently from the registry, so the struct is
// rebuilt per operation; nil registries yield no-op handles.
type ckptMetrics struct {
	writes         *obs.Counter
	writeErrors    *obs.Counter
	lastBytes      *obs.Gauge
	writeNs        *obs.Histogram
	restores       *obs.Counter
	restoreNs      *obs.Histogram
	skippedCorrupt *obs.Counter
}

func ckptMetricsFrom(reg *obs.Registry) ckptMetrics {
	r := reg.Sub("ckpt")
	return ckptMetrics{
		writes:         r.Counter("bdd_ckpt_writes_total"),
		writeErrors:    r.Counter("bdd_ckpt_write_errors_total"),
		lastBytes:      r.Gauge("bdd_ckpt_last_bytes"),
		writeNs:        r.Histogram("bdd_ckpt_write_ns"),
		restores:       r.Counter("bdd_ckpt_restores_total"),
		restoreNs:      r.Histogram("bdd_ckpt_restore_ns"),
		skippedCorrupt: r.Counter("bdd_ckpt_skipped_corrupt_total"),
	}
}

// capture builds the checkpoint under the dispatch barrier: no
// FeedBatch can interleave between per-subspace captures, so the
// checkpoint is the same consistent cross-subspace cut a Snapshot sees.
// Everything referenced by the returned value is a private copy —
// encoding may proceed after every lock is released, concurrent with
// new feeds and GC.
//
// streams carries the wire session cut (nil when there is no serving
// plane); the caller that owns the wire server captures it atomically
// with this call via wire.Server.SnapshotStreams.
func (s *System) capture(streams map[string]uint64) *ckpt.Checkpoint {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()

	c := &ckpt.Checkpoint{
		Meta: ckpt.Meta{
			CreatedAtUnixNano: time.Now().UnixNano(),
			ConfigHash:        configHash(s.cfg),
			// The global partition count, not the instantiated worker
			// count: a subset-of-subspaces checkpoint (WithSubspaceSet)
			// stays restorable into any other subset of the same
			// partition, which is how shard rebalance transfers state.
			Subspaces: int32(s.cfg.numSubspaces()),
			NVars:     int32(s.cfg.Layout.TotalBits()),
		},
		Streams:  streams,
		Verdicts: s.bus.exportState(),
	}
	for _, w := range s.workers {
		if s.isPoisoned(w.idx) {
			continue
		}
		w.mu.Lock()
		sub, ok := w.captureLocked()
		w.mu.Unlock()
		if ok {
			c.Subspaces = append(c.Subspaces, sub)
		}
	}
	return c
}

// captureLocked copies one subspace's durable state. Callers hold w.mu.
// Every slice that aliases live state the dispatcher or a GC remap may
// rewrite in place (table rules, queued updates) is value-copied here;
// node dumps and EC pairs are copies by construction.
func (w *sysWorker) captureLocked() (ckpt.Subspace, bool) {
	st, ok := w.disp.ExportState()
	if !ok {
		return ckpt.Subspace{}, false
	}
	// The container format serializes BDD node dumps; an atom-backed
	// subspace converts first. Restore always comes back in BDD mode —
	// the cutover is one-way, and a checkpoint is past the guard.
	if w.am != nil {
		w.cutoverLocked()
	}
	v, _ := w.disp.Verifier(st.Epoch)
	trans := v.Transformer()
	model := trans.Model()

	sub := ckpt.Subspace{
		Index:    int32(w.idx),
		Epoch:    string(st.Epoch),
		BDD:      w.space.E.ExportNodes(),
		PAT:      trans.Store.ExportNodes(),
		Universe: int32(model.Universe),
	}
	for vec, p := range model.ECs {
		sub.ECs = append(sub.ECs, ckpt.ECPair{Vec: int32(vec), Pred: int32(p)})
	}
	sort.Slice(sub.ECs, func(i, j int) bool { return sub.ECs[i].Vec < sub.ECs[j].Vec })
	for dev, tb := range trans.ExportTables() {
		sub.Tables = append(sub.Tables, ckpt.DeviceTable{
			Device: int32(dev),
			Rules:  append([]fib.Rule(nil), tb.Rules()...),
		})
	}
	sort.Slice(sub.Tables, func(i, j int) bool { return sub.Tables[i].Device < sub.Tables[j].Device })
	for _, dev := range v.SyncOrder() {
		sub.SyncOrder = append(sub.SyncOrder, int32(dev))
	}
	for dev, e := range st.Tracker.Last {
		sub.TrackerLast = append(sub.TrackerLast, ckpt.DevEpoch{Device: int32(dev), Epoch: string(e)})
	}
	sort.Slice(sub.TrackerLast, func(i, j int) bool { return sub.TrackerLast[i].Device < sub.TrackerLast[j].Device })
	for _, e := range st.Tracker.Active {
		sub.ActiveEpochs = append(sub.ActiveEpochs, string(e))
	}
	for _, e := range st.Tracker.Inactive {
		sub.InactiveEpochs = append(sub.InactiveEpochs, string(e))
	}
	for dev, q := range st.Queues {
		dq := ckpt.DeviceQueue{Device: int32(dev)}
		for _, m := range q {
			dq.Msgs = append(dq.Msgs, ckpt.QueuedMsg{
				Epoch:   string(m.Epoch),
				Updates: append([]fib.Update(nil), m.Updates...),
			})
		}
		sub.Queues = append(sub.Queues, dq)
	}
	sort.Slice(sub.Queues, func(i, j int) bool { return sub.Queues[i].Device < sub.Queues[j].Device })
	for dev, n := range st.Fed {
		sub.Fed = append(sub.Fed, ckpt.DevCount{Device: int32(dev), Count: int32(n)})
	}
	sort.Slice(sub.Fed, func(i, j int) bool { return sub.Fed[i].Device < sub.Fed[j].Device })
	return sub, true
}

// Checkpoint captures the system's durable state and writes it
// crash-consistently into dir (which must exist). Ingest is blocked
// only for the in-memory copy; encoding and fsync happen concurrently
// with new feeds. Serving-plane deployments should use
// Server.Checkpoint instead, which additionally captures and commits
// the wire sequence cut.
func (s *System) Checkpoint(dir string) (CheckpointInfo, error) {
	return s.writeCheckpoint(dir, s.capture(nil))
}

// writeCheckpoint encodes and durably writes an already-captured
// checkpoint, maintaining the bdd_ckpt_* metrics.
func (s *System) writeCheckpoint(dir string, c *ckpt.Checkpoint) (CheckpointInfo, error) {
	m := ckptMetricsFrom(s.cfg.Metrics)
	start := time.Now()
	path, err := ckpt.Save(dir, c)
	if err != nil {
		m.writeErrors.Inc()
		return CheckpointInfo{}, fmt.Errorf("flash: checkpoint: %w", err)
	}
	info := CheckpointInfo{
		Path:      path,
		Subspaces: len(c.Subspaces),
		Streams:   len(c.Streams),
		Took:      time.Since(start),
	}
	if fi, serr := os.Stat(path); serr == nil {
		info.Bytes = int(fi.Size())
	}
	m.writes.Inc()
	m.writeNs.Observe(info.Took)
	m.lastBytes.Set(int64(info.Bytes))
	return info, nil
}

// exportState captures the verdict bus for a checkpoint. The caller
// holds the dispatch barrier, so no publish is in flight.
func (b *verdictBus) exportState() ckpt.VerdictState {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := ckpt.VerdictState{Seq: b.seq}
	for key, vs := range b.last {
		st.Cells = append(st.Cells, ckpt.VerdictCell{
			Spec:     key.spec,
			Subspace: int32(key.subspace),
			Epoch:    vs.epoch,
			Verdict:  int32(vs.verdict),
			Loop:     int32(vs.loop),
			Witness:  append([]uint64(nil), vs.witness...),
		})
	}
	sort.Slice(st.Cells, func(i, j int) bool {
		if st.Cells[i].Spec != st.Cells[j].Spec {
			return st.Cells[i].Spec < st.Cells[j].Spec
		}
		return st.Cells[i].Subspace < st.Cells[j].Subspace
	})
	return st
}

// importState seeds a fresh bus from checkpointed state: restored
// subscribers see flips relative to the pre-crash published verdicts,
// not a replayed burst of "first verdict" events.
func (b *verdictBus) importState(st ckpt.VerdictState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq = st.Seq
	for _, c := range st.Cells {
		b.last[verdictKey{spec: c.Spec, subspace: int(c.Subspace)}] = verdictState{
			epoch:   c.Epoch,
			verdict: Verdict(c.Verdict),
			loop:    LoopResult(c.Loop),
			witness: c.Witness,
		}
	}
}

// Restore builds a System from the newest usable checkpoint in dir,
// configured exactly like NewSystem with the same options. Candidates
// are tried newest-first; a corrupt, wrong-version, or
// config-mismatched file is logged, counted (bdd_ckpt_skipped_corrupt_total),
// and skipped in favor of an older one. When no candidate is usable the
// error wraps ErrNoCheckpoint and the caller falls back to a fresh
// NewSystem plus full re-ingest — Restore never panics on a hostile
// file and never partially applies one.
//
// The report's Streams map carries the wire sequence cut; serving-plane
// callers preload it into the session layer (see Serve's
// CheckpointDir option) so reconnecting agents replay only the
// checkpoint-to-crash suffix.
func Restore(dir string, opts ...Option) (*System, *RestoreReport, error) {
	cfg := buildConfig(opts)
	m := ckptMetricsFrom(cfg.Metrics)
	rep := &RestoreReport{}
	want := configHash(cfg)
	start := time.Now()
	for _, path := range ckpt.Candidates(dir) {
		c, err := ckpt.Load(path)
		if err != nil {
			logfTo(cfg.Logger, "flash: checkpoint %s unusable: %v", path, err)
			m.skippedCorrupt.Inc()
			rep.SkippedCorrupt++
			continue
		}
		if c.Meta.ConfigHash != want {
			logfTo(cfg.Logger, "flash: checkpoint %s captured under different config (hash %x, want %x); skipping", path, c.Meta.ConfigHash, want)
			m.skippedCorrupt.Inc()
			rep.SkippedCorrupt++
			continue
		}
		sys, err := newSystemFromCheckpoint(cfg, c)
		if err != nil {
			logfTo(cfg.Logger, "flash: checkpoint %s failed to restore: %v", path, err)
			m.skippedCorrupt.Inc()
			rep.SkippedCorrupt++
			continue
		}
		rep.Path = path
		rep.Subspaces = len(c.Subspaces)
		rep.Streams = c.Streams
		rep.Took = time.Since(start)
		m.restores.Inc()
		m.restoreNs.Observe(rep.Took)
		logfTo(cfg.Logger, "flash: restored from %s (%d subspaces, %d streams) in %v", path, rep.Subspaces, len(rep.Streams), rep.Took)
		return sys, rep, nil
	}
	return nil, rep, fmt.Errorf("flash: restore from %s: %w", dir, ErrNoCheckpoint)
}

// PruneCheckpoints removes all but the newest keep checkpoints from
// dir, plus any temp files left behind by interrupted writes. keep is
// clamped to at least 1 so a prune can never delete the only restore
// point.
func PruneCheckpoints(dir string, keep int) error {
	return ckpt.Prune(dir, keep)
}

// logfTo logs through an optional logger (nil silences, as everywhere
// in the serving plane).
func logfTo(l *log.Logger, format string, args ...any) {
	if l != nil {
		l.Printf(format, args...)
	}
}

// newSystemFromCheckpoint mirrors NewSystem, but subspaces present in
// the checkpoint are rebuilt from their serialized state: the BDD node
// dump is replayed into a fresh engine (hash-consing makes every
// recorded ref valid again), the PAT store and inverse model are
// reattached, and the most-converged verifier's detection state is
// reconstructed by replaying its device synchronization order.
// Subspaces absent from the checkpoint (no live verifier at capture)
// start fresh, exactly as in NewSystem.
//
// Every recorded ref is validated against the restored stores before
// use; any inconsistency fails the restore (the caller then tries an
// older candidate).
func newSystemFromCheckpoint(cfg Config, c *ckpt.Checkpoint) (*System, error) {
	nglobal := cfg.numSubspaces()
	if int(c.Meta.Subspaces) != nglobal {
		return nil, fmt.Errorf("flash: restore: checkpoint has %d subspaces, config wants %d", c.Meta.Subspaces, nglobal)
	}
	if int(c.Meta.NVars) != cfg.Layout.TotalBits() {
		return nil, fmt.Errorf("flash: restore: checkpoint has %d BDD variables, layout wants %d", c.Meta.NVars, cfg.Layout.TotalBits())
	}
	byIdx := make(map[int]ckpt.Subspace, len(c.Subspaces))
	for _, sub := range c.Subspaces {
		i := int(sub.Index)
		if i < 0 || i >= nglobal {
			return nil, fmt.Errorf("flash: restore: subspace index %d out of range", i)
		}
		if _, dup := byIdx[i]; dup {
			return nil, fmt.Errorf("flash: restore: duplicate subspace %d", i)
		}
		byIdx[i] = sub
	}

	// Checkpoint sections outside the configured subspace set are simply
	// not instantiated: a full-set checkpoint restores cleanly into a
	// shard replica owning any subset (and vice versa, with the missing
	// subspaces starting fresh).
	s, err := newSystem(cfg, func(i int) (*sysWorker, error) {
		sub, ok := byIdx[i]
		if !ok {
			return newSysWorker(cfg, i, nil)
		}
		e, err := bdd.NewFromNodes(cfg.Layout.TotalBits(), sub.BDD)
		if err != nil {
			return nil, fmt.Errorf("flash: restore subspace %d: %w", i, err)
		}
		w, err := newSysWorker(cfg, i, e)
		if err != nil {
			return nil, err
		}
		if err := w.restore(sub); err != nil {
			return nil, fmt.Errorf("flash: restore subspace %d: %w", i, err)
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	s.bus.importState(c.Verdicts)
	return s, nil
}

// restore rebuilds the subspace's dispatcher, its most-converged
// verifier and that verifier's Fast IMT state from a checkpoint section.
// The core already runs on the engine replayed from the section's node
// dump (newSysWorker); the worker is not yet shared.
func (w *sysWorker) restore(sub ckpt.Subspace) error {
	e := w.space.E
	if bdd.Ref(sub.Universe) != w.universe {
		return fmt.Errorf("universe predicate mismatch (checkpoint %d, config %d)", sub.Universe, w.universe)
	}
	store, err := pat.NewStoreFromNodes(sub.PAT)
	if err != nil {
		return err
	}
	model := &imt.Model{ECs: make(map[pat.Ref]bdd.Ref, len(sub.ECs)), Universe: w.universe}
	for _, ec := range sub.ECs {
		vec := pat.Ref(ec.Vec)
		if _, dup := model.ECs[vec]; dup {
			return fmt.Errorf("duplicate EC vector %d", ec.Vec)
		}
		model.ECs[vec] = bdd.Ref(ec.Pred)
	}
	tables := make(map[fib.DeviceID]*fib.Table, len(sub.Tables))
	for _, dt := range sub.Tables {
		dev := fib.DeviceID(dt.Device)
		if _, dup := tables[dev]; dup {
			return fmt.Errorf("duplicate table for device %d", dev)
		}
		tables[dev] = fib.NewTable(dt.Rules...)
	}
	trans, err := imt.RestoreTransformer(e, store, model, tables, "ce2d/subspace"+strconv.Itoa(w.idx))
	if err != nil {
		return err
	}
	trans.Instrument(w.metrics.Sub("imt"))

	syncOrder := make([]fib.DeviceID, len(sub.SyncOrder))
	for i, d := range sub.SyncOrder {
		syncOrder[i] = fib.DeviceID(d)
	}
	v, err := ce2d.RestoreVerifier(w.verifierConfig(), trans, syncOrder)
	if err != nil {
		return err
	}

	st := ce2d.DispatcherState{
		Tracker: ce2d.TrackerState{Last: make(map[fib.DeviceID]ce2d.Epoch, len(sub.TrackerLast))},
		Epoch:   ce2d.Epoch(sub.Epoch),
		Queues:  make(map[fib.DeviceID][]ce2d.Msg, len(sub.Queues)),
		Fed:     make(map[fib.DeviceID]int, len(sub.Fed)),
	}
	for _, de := range sub.TrackerLast {
		st.Tracker.Last[fib.DeviceID(de.Device)] = ce2d.Epoch(de.Epoch)
	}
	for _, ep := range sub.ActiveEpochs {
		st.Tracker.Active = append(st.Tracker.Active, ce2d.Epoch(ep))
	}
	for _, ep := range sub.InactiveEpochs {
		st.Tracker.Inactive = append(st.Tracker.Inactive, ce2d.Epoch(ep))
	}
	for _, dq := range sub.Queues {
		dev := fib.DeviceID(dq.Device)
		if _, dup := st.Queues[dev]; dup {
			return fmt.Errorf("duplicate queue for device %d", dev)
		}
		var q []ce2d.Msg
		for _, m := range dq.Msgs {
			for _, u := range m.Updates {
				if !e.CheckRef(u.Rule.Match) {
					return fmt.Errorf("queued rule match ref %d for device %d outside restored engine", u.Rule.Match, dev)
				}
			}
			q = append(q, ce2d.Msg{Device: dev, Epoch: ce2d.Epoch(m.Epoch), Updates: m.Updates})
		}
		st.Queues[dev] = q
	}
	for _, dc := range sub.Fed {
		st.Fed[fib.DeviceID(dc.Device)] = int(dc.Count)
	}
	disp, err := ce2d.RestoreDispatcher(w.newVerifier, st, v)
	if err != nil {
		return err
	}
	disp.Instrument(w.metrics)
	w.disp = disp
	return nil
}
