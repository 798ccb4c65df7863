package flash

// SetFeedHook installs a test seam that runs inside the subspace
// worker's scheduler task, before each message is applied. A panic in
// the hook exercises the worker-quarantine path for exactly the chosen
// subspace, which no public input can target deterministically; the
// scheduler property tests additionally use the hook as a per-subspace
// sequence witness (it observes the exact message order each subspace
// applies).
func (s *System) SetFeedHook(f func(subspace int, m Msg)) { s.feedHook = f }

// workerNodeCounts reports each worker's live predicate node count (BDD
// nodes or atom interval sets, whichever representation is live), for
// the soak tests' bounded-memory assertions.
func workerNodeCounts[W worker](ws []W) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		c := w.core()
		c.mu.Lock()
		out[i] = c.eng.NumNodes()
		c.mu.Unlock()
	}
	return out
}
