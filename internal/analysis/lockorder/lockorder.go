// Package lockorder enforces the serving plane's lock hierarchy.
//
// Flash's serving plane nests its mutexes in one documented order (see
// DESIGN.md §6):
//
//	System.dispatchMu / ModelBuilder.dispatchMu  rank 10
//	subspace.mu (each worker's core)             rank 20
//	verdictBus.mu                                rank 30
//	Snapshot.mu                                  rank 40
//
// Acquiring a mutex whose rank is not strictly greater than every rank
// already held can deadlock against a thread locking in the documented
// order; the race detector only catches the interleavings that actually
// happen, while this check catches the ones that could.
//
// Ranks are declared in source with a directive on the mutex's field
// (or package-level variable) declaration:
//
//	dispatchMu sync.Mutex //flashvet:lockrank 10
//
// and exported as LockRankFacts, so a ranked mutex declared in one
// package constrains lockers in every importing package. Each function
// additionally exports an AcquiresFact listing the ranks it may lock
// (directly or transitively), letting the checker flag a call into
// rank-r-acquiring code made while holding rank >= r — across package
// boundaries.
//
// Lock state is tracked path-sensitively over the framework CFG with a
// may-hold forward dataflow. A deferred Unlock never releases: the lock
// is held until function exit, which is the conservative reading a
// hierarchy check wants. Unranked mutexes (leaf locks like Pipeline.mu)
// are ignored.
package lockorder

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis/framework"
)

// LockRankFact gives a mutex field or variable its position in the lock
// hierarchy.
type LockRankFact struct {
	Rank int `json:"rank"`
}

// AFact marks LockRankFact as a framework fact.
func (*LockRankFact) AFact() {}

// AcquiresFact lists the ranked locks a function may acquire, directly
// or transitively (parallel slices, sorted by rank).
type AcquiresFact struct {
	Ranks []int    `json:"ranks"`
	Names []string `json:"names"`
}

// AFact marks AcquiresFact as a framework fact.
func (*AcquiresFact) AFact() {}

// Analyzer is the lockorder pass.
var Analyzer = &framework.Analyzer{
	Name:      "lockorder",
	Doc:       "flag mutex acquisitions that violate the declared //flashvet:lockrank hierarchy",
	FactTypes: []framework.Fact{(*LockRankFact)(nil), (*AcquiresFact)(nil)},
}

func init() { Analyzer.Run = run }

const rankDirective = "//flashvet:lockrank"

// parseRank parses a `//flashvet:lockrank N` comment.
func parseRank(text string) (int, bool) {
	rest, ok := strings.CutPrefix(text, rankDirective)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0, false
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, false
	}
	return n, true
}

func run(pass *framework.Pass) (any, error) {
	if pass.Facts == nil {
		// Keep the intra-package half functional under fact-free drivers.
		pass.Facts = framework.NewFactSet([]*framework.Analyzer{Analyzer})
	}
	exportRanks(pass)
	exportAcquires(pass)
	for _, f := range pass.Files {
		framework.EachFuncBody(f, func(fb framework.FuncBody) {
			checkBody(pass, fb.Body)
		})
	}
	return nil, nil
}

// exportRanks finds //flashvet:lockrank directives on mutex field and
// package-level variable declarations and exports their LockRankFacts.
func exportRanks(pass *framework.Pass) {
	rankOfComments := func(groups ...*ast.CommentGroup) (int, bool) {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if n, ok := parseRank(c.Text); ok {
					return n, ok
				}
			}
		}
		return 0, false
	}
	export := func(names []*ast.Ident, rank int) {
		for _, name := range names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if !framework.IsSyncMutex(obj.Type()) {
				pass.Reportf(name.Pos(), "//flashvet:lockrank on %s, which is not a sync.Mutex or sync.RWMutex", name.Name)
				continue
			}
			pass.ExportObjectFact(obj, &LockRankFact{Rank: rank})
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if rank, ok := rankOfComments(n.Doc, n.Comment); ok {
					export(n.Names, rank)
				}
			case *ast.GenDecl:
				// An unparenthesized `var` attaches the doc comment to the
				// GenDecl, not the ValueSpec.
				if rank, ok := rankOfComments(n.Doc); ok {
					for _, spec := range n.Specs {
						if vs, isVar := spec.(*ast.ValueSpec); isVar {
							export(vs.Names, rank)
						}
					}
				}
			case *ast.ValueSpec:
				if rank, ok := rankOfComments(n.Doc, n.Comment); ok {
					export(n.Names, rank)
				}
			}
			return true
		})
	}
}

// rankOf resolves the rank of the mutex behind a Lock/Unlock receiver
// expression, with a diagnostic-friendly name.
func rankOf(pass *framework.Pass, recv ast.Expr) (obj types.Object, rank int, name string, ok bool) {
	obj = framework.MutexFieldObj(pass.TypesInfo, recv)
	if obj == nil {
		return nil, 0, "", false
	}
	var fact LockRankFact
	if !pass.ImportObjectFact(obj, &fact) {
		return nil, 0, "", false
	}
	name = obj.Name()
	if obj.Pkg() != nil {
		if p, okP := framework.ObjectPath(obj.Pkg(), obj); okP {
			name = p
		}
	}
	return obj, fact.Rank, name, true
}

// lockEvent is one ranked-lock acquisition or hand-off inside a node.
type lockEvent struct {
	call *ast.CallExpr
	// op: "lock", "unlock", or "call" (into a function with an
	// AcquiresFact).
	op       string
	obj      types.Object // the mutex (lock/unlock)
	rank     int          // acquired rank (lock) — unused for unlock
	name     string
	acquires *AcquiresFact // for op == "call"
	callee   string
}

// nodeEvents extracts the ranked lock events of one CFG node in source
// order. Function literals are separate scopes and skipped. A deferred
// Unlock releases at exit, not here, so it produces no event; a
// deferred Lock is nonsense and ignored.
func nodeEvents(pass *framework.Pass, n ast.Node) []lockEvent {
	deferred := make(map[*ast.CallExpr]bool)
	var events []lockEvent
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[m.Call] = true
		case *ast.CallExpr:
			if recv, opName, ok := framework.MutexOp(pass.TypesInfo, m); ok {
				obj, rank, name, ranked := rankOf(pass, recv)
				if !ranked || deferred[m] {
					return true
				}
				switch opName {
				case "Lock", "RLock":
					events = append(events, lockEvent{call: m, op: "lock", obj: obj, rank: rank, name: name})
				case "Unlock", "RUnlock":
					events = append(events, lockEvent{call: m, op: "unlock", obj: obj, name: name})
				}
				return true
			}
			if callee := framework.CalleeFunc(pass.TypesInfo, m); callee != nil {
				var fact AcquiresFact
				if pass.ImportObjectFact(callee, &fact) {
					events = append(events, lockEvent{call: m, op: "call", acquires: &fact, callee: callee.Name()})
				}
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].call.Pos() < events[j].call.Pos() })
	return events
}

// held is the dataflow state: mutex object -> (rank, name) for every
// ranked lock that may be held.
type heldInfo struct {
	Rank int
	Name string
}

func cloneHeld(s map[types.Object]heldInfo) map[types.Object]heldInfo {
	out := make(map[types.Object]heldInfo, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// checkBody runs the may-hold analysis over one function body and
// reports hierarchy violations.
func checkBody(pass *framework.Pass, body *ast.BlockStmt) {
	g := pass.CFG(body)
	spec := framework.FlowSpec[map[types.Object]heldInfo]{
		Dir:      framework.Forward,
		Boundary: map[types.Object]heldInfo{},
		Bottom:   func() map[types.Object]heldInfo { return nil },
		Join: func(a, b map[types.Object]heldInfo) map[types.Object]heldInfo {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := cloneHeld(a)
			for k, v := range b {
				out[k] = v
			}
			return out
		},
		Equal: func(a, b map[types.Object]heldInfo) bool {
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
		Transfer: func(b *framework.Block, in map[types.Object]heldInfo) map[types.Object]heldInfo {
			if in == nil {
				return nil // unreached
			}
			out := cloneHeld(in)
			for _, n := range b.Nodes {
				for _, ev := range nodeEvents(pass, n) {
					applyEvent(out, ev, nil)
				}
			}
			return out
		},
	}
	before, _ := framework.Solve(g, spec)

	// Reporting sweep: replay each reachable block from its fixpoint
	// in-state, deduplicating by position (a block can sit on many
	// paths).
	reported := make(map[ast.Node]bool)
	for _, b := range g.ReachableBlocks() {
		state := before[b]
		if state == nil {
			state = map[types.Object]heldInfo{}
		}
		state = cloneHeld(state)
		for _, n := range b.Nodes {
			for _, ev := range nodeEvents(pass, n) {
				applyEvent(state, ev, func(format string, args ...any) {
					if !reported[ev.call] {
						reported[ev.call] = true
						pass.Reportf(ev.call.Pos(), format, args...)
					}
				})
			}
		}
	}
}

// applyEvent threads one lock event through the state, reporting
// violations when report is non-nil.
func applyEvent(state map[types.Object]heldInfo, ev lockEvent, report func(string, ...any)) {
	switch ev.op {
	case "lock":
		if report != nil {
			for obj, h := range state {
				if h.Rank >= ev.rank && obj != ev.obj {
					report("acquires %s (rank %d) while holding %s (rank %d); the lock hierarchy requires strictly increasing ranks", ev.name, ev.rank, h.Name, h.Rank)
				} else if obj == ev.obj {
					report("reacquires %s (rank %d) already held; self-deadlock", ev.name, ev.rank)
				}
			}
		}
		state[ev.obj] = heldInfo{Rank: ev.rank, Name: ev.name}
	case "unlock":
		delete(state, ev.obj)
	case "call":
		if report != nil {
			for _, i := range violationsOf(state, ev.acquires) {
				report("call to %s acquires %s (rank %d) while holding a lock of rank >= %d; the lock hierarchy requires strictly increasing ranks", ev.callee, ev.acquires.Names[i], ev.acquires.Ranks[i], ev.acquires.Ranks[i])
			}
		}
	}
}

// violationsOf returns the indexes of the callee's acquisitions that
// conflict with the held set.
func violationsOf(state map[types.Object]heldInfo, f *AcquiresFact) []int {
	var out []int
	for i, r := range f.Ranks {
		for _, h := range state {
			if h.Rank >= r {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// exportAcquires computes, to a fixpoint, the ranked locks each
// function of this package may acquire (directly or via callees) and
// exports AcquiresFacts.
func exportAcquires(pass *framework.Pass) {
	type acq struct {
		rank int
		name string
	}
	type fn struct {
		obj  *types.Func
		body *ast.BlockStmt
	}
	var fns []fn
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
					fns = append(fns, fn{obj: obj, body: fd.Body})
				}
			}
		}
	}
	exported := make(map[*types.Func]int) // last exported count, for change detection
	for round := 0; round <= len(fns); round++ {
		changed := false
		for _, f := range fns {
			set := make(map[acq]bool)
			for _, ev := range nodeEvents(pass, f.body) {
				switch ev.op {
				case "lock":
					set[acq{rank: ev.rank, name: ev.name}] = true
				case "call":
					for i, r := range ev.acquires.Ranks {
						set[acq{rank: r, name: ev.acquires.Names[i]}] = true
					}
				}
			}
			if len(set) == 0 || len(set) == exported[f.obj] {
				continue
			}
			list := make([]acq, 0, len(set))
			for a := range set {
				list = append(list, a)
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].rank != list[j].rank {
					return list[i].rank < list[j].rank
				}
				return list[i].name < list[j].name
			})
			fact := &AcquiresFact{}
			for _, a := range list {
				fact.Ranks = append(fact.Ranks, a.rank)
				fact.Names = append(fact.Names, a.name)
			}
			pass.ExportObjectFact(f.obj, fact)
			exported[f.obj] = len(set)
			changed = true
		}
		if !changed {
			break
		}
	}
}
