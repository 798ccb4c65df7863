package flash

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ce2d"
	"repro/internal/fib"
	"repro/internal/imt"
)

// snapSub is one subspace's captured state: a copy-on-write clone of the
// current verifier's Fast IMT model (device tables and EC map are
// copied; the immutable BDD nodes and PAT vectors behind them are
// shared) plus the set of devices that had synchronized the captured
// epoch. While registered in its worker's snaps list the clone's refs
// are part of the GC root set, so a collection can never sweep a
// snapshot out from under its holder.
type snapSub struct {
	w      *sysWorker
	epoch  ce2d.Epoch
	trans  *imt.Transformer // private clone, never the live verifier's state
	synced []fib.DeviceID
}

// Snapshot is a consistent copy-on-write capture of the system's model:
// per healthy subspace, the most-converged live verifier's device
// tables and EC model at one dispatch barrier. A snapshot pins its BDD
// refs against in-engine GC until Release; holding many snapshots holds
// that much model memory.
//
// Snapshots serve what-if transactions: Apply verifies hypothetical
// update blocks against the captured model without touching live state,
// fully concurrent with ingestion (it serializes with Feed per subspace
// on the worker mutex, never across subspaces).
type Snapshot struct {
	sys *System

	// subs is indexed by subspace; nil where no verifier was live (or
	// the subspace is poisoned). Immutable after Snapshot returns —
	// only Release detaches the entries.
	subs []*snapSub

	mu       sync.Mutex //flashvet:lockrank 40
	released bool
}

// Snapshot captures the current model under the dispatch barrier: no
// FeedBatch dispatch can interleave between the per-subspace captures,
// so the snapshot is a consistent cross-subspace cut of the result
// stream. Each subspace captures its most-converged live verifier (see
// ce2d.Dispatcher.Current); subspaces with no live verifier are skipped.
// It returns ErrNoEpoch when nothing has been fed yet.
//
// The caller must Release the snapshot; until then its BDD refs are
// pinned as GC roots in every captured subspace.
func (s *System) Snapshot() (*Snapshot, error) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	snap := &Snapshot{sys: s}
	captured := 0
	for _, w := range s.workers {
		if s.isPoisoned(w.idx) {
			snap.subs = append(snap.subs, nil)
			continue
		}
		w.mu.Lock()
		epoch, v, ok := w.disp.Current()
		if !ok {
			w.mu.Unlock()
			snap.subs = append(snap.subs, nil)
			continue
		}
		ss := &snapSub{
			w:      w,
			epoch:  epoch,
			trans:  v.Transformer().Clone(),
			synced: v.SynchronizedDevices(),
		}
		w.snaps = append(w.snaps, ss)
		w.mu.Unlock()
		snap.subs = append(snap.subs, ss)
		captured++
	}
	if captured == 0 {
		return nil, ErrNoEpoch
	}
	s.snapCount.Add(1)
	return snap, nil
}

// Epochs reports the captured epoch per subspace index (absent entries
// had no live verifier at capture time).
func (sn *Snapshot) Epochs() map[int]string {
	out := make(map[int]string)
	for i, ss := range sn.subs {
		if ss != nil {
			out[i] = string(ss.epoch)
		}
	}
	return out
}

// Released reports whether Release has run.
func (sn *Snapshot) Released() bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.released
}

// Release unpins the snapshot: its refs leave every worker's GC root
// set and the next collection may reclaim them. Idempotent. Apply must
// not be called concurrently with (or after) Release.
func (sn *Snapshot) Release() {
	sn.mu.Lock()
	already := sn.released
	sn.released = true
	sn.mu.Unlock()
	if already {
		return
	}
	for _, ss := range sn.subs {
		if ss == nil {
			continue
		}
		w := ss.w
		w.mu.Lock()
		for i, cur := range w.snaps {
			if cur == ss {
				w.snaps = append(w.snaps[:i], w.snaps[i+1:]...)
				break
			}
		}
		w.mu.Unlock()
	}
	sn.sys.snapCount.Add(-1)
}

// Apply runs a what-if transaction: the hypothetical update blocks are
// applied to a private fork of the captured model and the affected
// subspaces are re-verified from scratch against the forked tables,
// returning the deterministic results the hypothetical network state
// produces. Live state is never touched, nothing is published to
// verdict subscriptions, and the snapshot remains valid for further
// Apply calls (each gets its own fork).
//
// A subspace none of whose compiled updates intersect is unaffected and
// contributes no results. Devices the captured epoch had synchronized
// are treated as synchronized in the hypothetical state too (a what-if
// asks "what if these FIBs converged", not "what if the epoch
// restarted"), plus every device a block touches.
//
// The context is checked between subspaces; a what-if canceled mid-way
// returns ctx.Err() with no partial results.
func (sn *Snapshot) Apply(ctx context.Context, blocks []DeviceBlock) ([]Result, error) {
	sn.mu.Lock()
	released := sn.released
	sn.mu.Unlock()
	if released {
		return nil, ErrSnapshotReleased
	}
	var out []Result
	routes := sn.sys.cfg.routeBlocks(blocks)
	for _, ss := range sn.subs {
		if ss == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rs, err := ss.whatIf(blocks, routes)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// WhatIf is the one-shot convenience: Snapshot, Apply, Release.
func (s *System) WhatIf(ctx context.Context, blocks []DeviceBlock) ([]Result, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	return snap.Apply(ctx, blocks)
}

// whatIf runs one subspace's share of a what-if transaction under the
// worker mutex — serialized with live feeds and GC for this subspace,
// concurrent with every other subspace. All transient refs minted here
// (compiled matches, forked model growth, verifier detection state)
// need no GC rooting: collection on this engine only runs under w.mu,
// and everything transient is dead before the mutex is released.
func (ss *snapSub) whatIf(blocks []DeviceBlock, routes routeTable) (results []Result, err error) {
	w := ss.w
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("flash: what-if in subspace %d: panic: %v", w.idx, r)
		}
	}()

	// Compile the hypothetical updates against this subspace — the same
	// routing, compile and hybrid cutover guard as the live feed path (a
	// hypothetical ternary rule converts the subspace to BDD exactly as
	// feeding it live would); a block whose rules all miss the universe
	// does not touch it.
	compiled := w.compileBlocks(blocks, routes)
	if len(compiled) == 0 {
		return nil, nil // subspace unaffected
	}

	// Fork the captured model and apply the hypothesis to the fork.
	wt := ss.trans.Clone()
	if aerr := wt.ApplyBlock(compiled); aerr != nil {
		return nil, fmt.Errorf("flash: what-if in subspace %d: %w", w.idx, aerr)
	}

	// Re-verify from scratch against the forked tables: detection state
	// is one-shot per device, so each what-if gets a fresh verifier.
	v := ce2d.NewVerifier(w.verifierConfig())
	devs := append([]fib.DeviceID(nil), ss.synced...)
	for _, fb := range compiled {
		devs = append(devs, fb.Device) // duplicates are skipped below
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	var prev fib.DeviceID
	for i, dev := range devs {
		if i > 0 && dev == prev {
			continue
		}
		prev = dev
		evs, serr := v.SynchronizeTable(dev, wt.Table(dev))
		if serr != nil {
			return nil, fmt.Errorf("flash: what-if in subspace %d: %w", w.idx, serr)
		}
		for _, ev := range evs {
			results = append(results, w.result(ss.epoch, ev))
		}
	}
	return results, nil
}

// GC forces an immediate mark-and-sweep pass on every healthy subspace
// engine, returning the total node count reclaimed. Live snapshots are
// part of each worker's root set, so their state survives (regression:
// TestSnapshotSurvivesGC).
func (s *System) GC() int {
	total := 0
	for _, w := range s.workers {
		if s.isPoisoned(w.idx) {
			continue
		}
		w.mu.Lock()
		st := w.gcLocked()
		w.mu.Unlock()
		total += st.Reclaimed
	}
	return total
}
