package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder builds the module-wide mutex acquisition-order graph and
// reports its cycles as potential deadlocks. Every time a
// sync.Mutex/RWMutex is acquired while another is held — directly, or
// one call level away through a module function whose body acquires —
// an edge held→acquired is recorded. Two functions that take the same
// pair of locks in opposite orders never crash a test: each is correct
// in isolation, and only a particular interleaving of two goroutines
// deadlocks. The cycle in the static graph is the one artifact that
// exists before the interleaving does.
//
// The per-function analysis reads the must-held view of the shared
// held-resource dataflow (heldflow.go) — lockcheck's view: join =
// intersection, defer mu.Unlock() keeps the section open to exit — with
// each mutex's global key — a field mutex is named by its defining
// package, owner type, and field (pkg.Type.mu), a package-level mutex by
// pkg.name — so acquisition sites in different functions and packages
// land on the same graph node. A self-edge (re-acquiring a mutex already
// held) is the degenerate one-node cycle, subsuming lockcheck's
// self-deadlock rule.
//
// Cycle detection runs once per analysis over the union of every
// package's edges (cached packages contribute their serialized edges —
// see factcache.go), and reports each edge that participates in a
// cyclic strongly connected component, at the inner acquisition site.
//
// Soundness limits: local mutexes are keyed per enclosing function and
// cannot form cross-function cycles; dynamic calls are invisible; the
// interprocedural reach is one call level (no transitive closure).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "build the module-wide lock acquisition-order graph and report cycles (potential deadlocks)",
	Run:  runLockOrder,
}

// LockEdge is one acquisition-order fact: To was acquired at Pos while
// From was held (acquired at FromPos). Via names the called helper when
// the inner acquisition is one call level away. Positions are
// token.Position so edges serialize into the fact cache.
type LockEdge struct {
	From    string         `json:"from"`
	To      string         `json:"to"`
	FromPos token.Position `json:"from_pos"`
	Pos     token.Position `json:"pos"`
	Via     string         `json:"via,omitempty"`
}

func runLockOrder(pass *Pass) {
	sums := heldSummaries(pass.Prog)
	var edges []LockEdge
	forEachHeldBody(pass, func(fnName string, _ *ast.BlockStmt, r *heldBody) {
		edges = append(edges, lockOrderEdges(pass, fnName, r, sums)...)
	})
	pass.Prog.setLockEdges(pass.PkgPath, edges)
}

// lockOrderKey names a mutex so acquisition sites in different functions
// and packages agree: a field mutex by defining package, owner type, and
// field path; a package-level mutex by package and name; a local mutex by
// package, enclosing function, and name (function-scoped, so it can form
// self-cycles but never cross-function ones).
func lockOrderKey(pass *Pass, recv ast.Expr, fnName string) string {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if obj := namedObj(pass.TypesInfo.TypeOf(e.X)); obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return obj.Pkg().Path() + "." + fnName + "." + obj.Name()
		}
	}
	return pass.PkgPath + ":" + types.ExprString(recv)
}

// lockOrderEdges returns every acquisition-order edge one body induces:
// each mutex locked, directly or one call level away, at a node reached
// with other mutexes definitely held.
func lockOrderEdges(pass *Pass, fnName string, r *heldBody, sums map[*types.Func]*heldSummary) []LockEdge {
	var edges []LockEdge
	seen := make(map[string]bool)
	add := func(held []heldMutex, to string, pos token.Pos, via string) {
		froms := slices.Clone(held)
		sort.SliceStable(froms, func(i, j int) bool { return froms[i].lock < froms[j].lock })
		for _, from := range froms {
			if via != "" && from.lock == to {
				continue // a helper re-entering the held mutex is lockcheck's report
			}
			p := pass.Fset.Position(pos)
			k := from.lock + "\x00" + to + "\x00" + p.Filename + "\x00" + fmt.Sprint(p.Line, p.Column)
			if seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, LockEdge{
				From:    from.lock,
				To:      to,
				FromPos: pass.Fset.Position(from.pos),
				Pos:     p,
				Via:     via,
			})
		}
	}
	for _, ln := range r.locked {
		if es, ok := ln.n.(*ast.ExprStmt); ok {
			if op, ok := resCall(pass.TypesInfo, es.X); ok && op.class.kind == resMutex && op.acquire {
				add(ln.held, lockOrderKey(pass, op.sel.X, fnName), ln.n.Pos(), "")
			}
		}
		ast.Inspect(ln.n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // a literal's acquisitions happen when it runs
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if callee := StaticCallee(pass.TypesInfo, call); callee != nil && sums[callee] != nil {
					for _, to := range sums[callee].acquires {
						add(ln.held, to, call.Pos(), callee.Name())
					}
				}
			}
			return true
		})
	}
	return edges
}

// LockOrderCycles detects cycles in the acquisition-order graph spanned
// by edges and returns one finding per participating edge, reported at
// the inner acquisition site. Exported so the fact-cache driver can run
// it over the union of fresh and cached edges.
func LockOrderCycles(edges []LockEdge) []Finding {
	scc := lockSCC(edges)
	cyclic := make(map[int]bool)
	count := make(map[int]int)
	for _, id := range scc {
		count[id]++
	}
	for id, n := range count {
		if n > 1 {
			cyclic[id] = true
		}
	}
	for _, e := range edges {
		if e.From == e.To {
			cyclic[scc[e.From]] = true
		}
	}
	members := make(map[int][]string)
	for node, id := range scc {
		if cyclic[id] {
			members[id] = append(members[id], node)
		}
	}
	for _, m := range members {
		sort.Strings(m)
	}
	var findings []Finding
	seen := make(map[string]bool)
	for _, e := range edges {
		id, ok := scc[e.From]
		if !ok || !cyclic[id] || scc[e.To] != id {
			continue
		}
		k := e.From + "\x00" + e.To + "\x00" + e.Pos.Filename + "\x00" + fmt.Sprint(e.Pos.Line, e.Pos.Column)
		if seen[k] {
			continue
		}
		seen[k] = true
		var msg string
		how := shortLockName(e.To)
		if e.Via != "" {
			how += " (via call to " + e.Via + ")"
		}
		if e.From == e.To {
			msg = fmt.Sprintf("lock order cycle: %s acquired while already held (self-deadlock); the goroutine blocks on itself", how)
		} else {
			cycle := append([]string(nil), members[id]...)
			for i, c := range cycle {
				cycle[i] = shortLockName(c)
			}
			msg = fmt.Sprintf("lock order cycle: acquiring %s while holding %s, but elsewhere the order reverses (cycle: %s); two goroutines taking opposite orders deadlock",
				how, shortLockName(e.From), strings.Join(append(cycle, cycle[0]), " → "))
		}
		findings = append(findings, Finding{Analyzer: LockOrder.Name, Pos: e.Pos, Message: msg})
	}
	SortFindings(findings)
	return findings
}

// shortLockName trims the import-path prefix of a lock key for readable
// reports: "burstlink/internal/memo.Cache.mu" → "memo.Cache.mu".
func shortLockName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// lockSCC assigns each graph node a strongly-connected-component id
// (iterative Tarjan, nodes visited in sorted order for determinism).
func lockSCC(edges []LockEdge) map[string]int {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	edgeSeen := make(map[string]bool)
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
		k := e.From + "\x00" + e.To
		if !edgeSeen[k] {
			edgeSeen[k] = true
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, succs := range adj {
		sort.Strings(succs)
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	scc := make(map[string]int)
	var stack []string
	next, comp := 0, 0

	type frame struct {
		node string
		succ int
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{node: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.succ < len(adj[f.node]) {
				w := adj[f.node][f.succ]
				f.succ++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			if low[f.node] == index[f.node] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc[w] = comp
					if w == f.node {
						break
					}
				}
				comp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.node] < low[p.node] {
					low[p.node] = low[f.node]
				}
			}
		}
	}
	for _, n := range order {
		if _, ok := index[n]; !ok {
			visit(n)
		}
	}
	return scc
}
