// Package lockbdd flags BDD engine calls made while holding a mutex in
// the CE2D/pipeline layer.
//
// A predicate engine (*bdd.Engine, *atoms.Engine, pred.Engine) is
// single-owner: it holds no locks and its counters are plain words, so
// all methods require the owner's exclusion, which Flash provides with
// the subspace worker's mutex (w.mu) — never a shared lock (§3.2's
// subspace partitioning is what makes engines lock-free).
// Coordination code — package ce2d and the pipeline/server glue — holds
// sync.Mutex/sync.RWMutex locks for bookkeeping (epoch tables, queue
// state), and BDD operations are unbounded work (an And can blow up
// exponentially in node count). Running one under a bookkeeping lock
// turns a shared map guard into a system-wide stall, and invites
// lock-order inversions against the workers.
//
// Since the v2 platform upgrade the check is flow-sensitive: a may-hold
// forward dataflow over the framework CFG tracks which locks may be
// held at each point, so an engine call is flagged when any path
// reaches it with a lock held — including paths the old source-order
// simulation could not see (a branch that skips the unlock, a loop
// carrying the lock around). A deferred unlock does not release — the
// lock is held for the rest of the function, which is exactly the
// pattern the check exists to catch. Worker-internal files (the
// subspace core in subspace.go owns its engine and its mutex together)
// are out of scope; the rank-based ordering between named locks is
// lockorder's job.
package lockbdd

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/analysis/framework"
)

// Analyzer is the lockbdd pass.
var Analyzer = &framework.Analyzer{
	Name: "lockbdd",
	Doc:  "flag predicate-engine method calls (*bdd.Engine, *atoms.Engine, pred.Engine) made while holding a sync mutex in ce2d/pipeline coordination code",
	Run:  run,
}

// inScope reports whether the file belongs to the coordination layer:
// all of package ce2d, plus the pipeline/server glue in package flash.
func inScope(pass *framework.Pass, f *ast.File) bool {
	if pass.Pkg.Name() == "ce2d" {
		return true
	}
	switch filepath.Base(pass.Filename(f.FileStart)) {
	case "pipeline.go", "serve.go":
		return true
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		if !inScope(pass, f) {
			continue
		}
		framework.EachFuncBody(f, func(fb framework.FuncBody) {
			checkBody(pass, fb.Body)
		})
	}
	return nil, nil
}

// engineCall reports whether call is a method call on a predicate
// engine — the concrete *bdd.Engine or *atoms.Engine, or the
// pred.Engine interface the hybrid layer threads through coordination
// code — returning the method name. Interface dispatch must count:
// since the hybrid predicate engine landed, ce2d holds its engine as
// pred.Engine, and an unbounded BDD operation under a bookkeeping lock
// is exactly as bad when it goes through an interface.
func engineCall(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if !framework.PointerToNamed(recv, "bdd", "Engine") &&
		!framework.PointerToNamed(recv, "atoms", "Engine") &&
		!framework.NamedIn(recv, "pred", "Engine") {
		return "", false
	}
	qual := func(p *types.Package) string { return p.Name() }
	return "(" + types.TypeString(recv, qual) + ")." + fn.Name(), true
}

type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evEngineCall
)

type event struct {
	kind eventKind
	node ast.Node
	key  string // lock expression (lock/unlock) or method name (engine call)
}

// nodeEvents extracts the lock and engine-call events of one CFG node
// in source order. Function literals are separate scopes (surfaced by
// EachFuncBody) and skipped; a deferred unlock releases at return, not
// here, so it produces no event, and a deferred engine call runs after
// the body's own unlocks.
func nodeEvents(pass *framework.Pass, n ast.Node) []event {
	deferred := make(map[*ast.CallExpr]bool)
	var events []event
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[m.Call] = true
		case *ast.CallExpr:
			if recv, name, ok := framework.MutexOp(pass.TypesInfo, m); ok {
				if deferred[m] {
					return true
				}
				key := types.ExprString(recv)
				switch name {
				case "Lock", "RLock":
					events = append(events, event{kind: evLock, node: m, key: key})
				case "Unlock", "RUnlock":
					events = append(events, event{kind: evUnlock, node: m, key: key})
				}
				return true
			}
			if name, ok := engineCall(pass, m); ok && !deferred[m] {
				events = append(events, event{kind: evEngineCall, node: m, key: name})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].node.Pos() < events[j].node.Pos() })
	return events
}

// held is the dataflow state: lock expression -> line acquired, for
// every lock that may be held.
type held map[string]int

func (h held) clone() held {
	out := make(held, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// checkBody runs the may-hold analysis over one function body.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	g := pass.CFG(body)
	spec := framework.FlowSpec[held]{
		Dir:      framework.Forward,
		Boundary: held{},
		Bottom:   func() held { return nil },
		Join: func(a, b held) held {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := a.clone()
			for k, v := range b {
				if cur, ok := out[k]; !ok || v < cur {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b held) bool {
			if (a == nil) != (b == nil) || len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if w, ok := b[k]; !ok || w != v {
					return false
				}
			}
			return true
		},
		Transfer: func(b *framework.Block, in held) held {
			if in == nil {
				return nil // unreached
			}
			out := in.clone()
			for _, n := range b.Nodes {
				for _, ev := range nodeEvents(pass, n) {
					applyEvent(pass, out, ev, false)
				}
			}
			return out
		},
	}
	before, _ := framework.Solve(g, spec)

	reported := make(map[ast.Node]bool)
	for _, b := range g.ReachableBlocks() {
		state := before[b]
		if state == nil {
			state = held{}
		}
		state = state.clone()
		for _, n := range b.Nodes {
			for _, ev := range nodeEvents(pass, n) {
				if ev.kind == evEngineCall && len(state) > 0 && !reported[ev.node] {
					reported[ev.node] = true
					locks := make([]string, 0, len(state))
					for lock := range state {
						locks = append(locks, lock)
					}
					sort.Strings(locks)
					for _, lock := range locks {
						pass.Reportf(ev.node.Pos(), "%s called while holding %s (locked at line %d); predicate operations are unbounded work and engines are single-owner — release the lock or hand off to the owning worker", ev.key, lock, state[lock])
					}
				}
				applyEvent(pass, state, ev, true)
			}
		}
	}
}

// applyEvent threads one event through the state.
func applyEvent(pass *framework.Pass, state held, ev event, reporting bool) {
	switch ev.kind {
	case evLock:
		state[ev.key] = pass.Fset.Position(ev.node.Pos()).Line
	case evUnlock:
		delete(state, ev.key)
	}
	_ = reporting
}
