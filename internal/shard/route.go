package shard

import (
	flash "repro"
	"repro/internal/fib"
)

// routeFor narrows a message for one shard: the envelope (device +
// epoch) always goes through — CE2D epoch tracking needs every worker
// to observe every message — but updates whose primary prefix on the
// partitioned field cannot intersect any of the shard's subspaces are
// pruned. Pruning is an optimization, never a correctness requirement:
// a subspace worker intersects each update with its universe and drops
// the empty ones itself, so over-delivery is always safe.
func (c *Coordinator) routeFor(sh *shard, m flash.Msg) flash.Msg {
	if len(c.cfg.Sets) == 1 || c.cfg.Subspaces <= 1 {
		return m // single shard or single subspace: nothing to prune
	}
	var kept []flash.Update
	pruned := false
	for ui, u := range m.Updates {
		lo, hi, ok := c.subspaceRange(u)
		if !ok || rangeHits(sh.owned, lo, hi) {
			c.m.routed.Inc()
			if pruned {
				kept = append(kept, u)
			}
			continue
		}
		c.m.filtered.Inc()
		// First pruned update: materialize the kept prefix lazily so
		// the common all-kept case stays allocation-free.
		if !pruned {
			kept = append(kept, m.Updates[:ui]...)
			pruned = true
		}
	}
	if !pruned {
		return m
	}
	return flash.Msg{Device: m.Device, Epoch: m.Epoch, Updates: kept}
}

// subspaceRange maps an update's primary prefix on the partitioned
// field to the inclusive global subspace range it can touch. ok=false
// means "unknown — deliver everywhere" (see fib.SubspaceRange, the
// arithmetic the subspace workers route with in process too).
func (c *Coordinator) subspaceRange(u flash.Update) (lo, hi int, ok bool) {
	return fib.SubspaceRange(u.Rule.Desc, c.cfg.Field, c.cfg.FieldBits, c.cfg.Subspaces)
}

// rangeHits reports whether any owned subspace falls in [lo, hi].
func rangeHits(owned map[int]bool, lo, hi int) bool {
	if hi-lo >= len(owned) {
		// The range is wider than the owned set: scan the set instead.
		for i := range owned {
			if i >= lo && i <= hi {
				return true
			}
		}
		return false
	}
	for i := lo; i <= hi; i++ {
		if owned[i] {
			return true
		}
	}
	return false
}
