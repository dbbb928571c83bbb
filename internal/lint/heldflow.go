package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the one held-resource dataflow behind gatecheck,
// lockcheck, lockorder and leakcheck. A classifier table names the
// resources a function can hold — sync mutexes, par.Gate slots and
// sync.WaitGroup counts — with the methods that acquire and release
// them. One forward dataflow per function body tracks every resource the
// body holds, and the four analyzers are reporters over its result:
//
//   - gatecheck: a gate slot held or maybe-held at Exit leaks;
//   - lockcheck: a blocking operation reached while a mutex is
//     definitely held stalls every contender;
//   - lockorder: a mutex acquired while another is definitely held is
//     an edge of the module-wide acquisition-order graph;
//   - leakcheck: a WaitGroup count held at Exit wedges Wait — in a
//     goroutine body that owes its Done, or in a flight leader whose Add
//     is not balanced on every path, panics included.
//
// The result of a body is computed once, by whichever of the four runs
// first on its package, and dropped when the next package starts, so no
// per-body facts outlive one package's analysis.

// resKind names one row of the classifier table.
type resKind uint8

const (
	resMutex resKind = iota
	resGate
	resWaitGroup
)

// resClass is one row of the classifier table.
type resClass struct {
	kind             resKind
	is               func(types.Type) bool
	acquire, release []string
	// atExit marks resources that must be released before the function
	// returns: a deferred release counts as the release, and a call
	// through a func-typed value is a may-panic edge to Exit while one is
	// held. Mutexes are left out on purpose — defer mu.Unlock() keeps
	// the critical section open to exit, which is what lockcheck
	// inspects, and no rule checks a mutex released at exit.
	atExit bool
}

var resClasses = []resClass{
	{kind: resMutex, is: isSyncType("Mutex", "RWMutex"), acquire: []string{"Lock", "RLock"}, release: []string{"Unlock", "RUnlock"}},
	{kind: resGate, is: isParGate, acquire: []string{"Acquire", "TryAcquire"}, release: []string{"Release"}, atExit: true},
	// The leader rule: a body that both Adds and Dones one key must
	// balance them on every path, a panicking call between them included.
	{kind: resWaitGroup, is: isSyncType("WaitGroup"), acquire: []string{"Add"}, release: []string{"Done"}, atExit: true},
}

// resOp is one classified method call on a held resource.
type resOp struct {
	class   *resClass
	acquire bool
	call    *ast.CallExpr
	sel     *ast.SelectorExpr
}

// key is the receiver expression as written: the resource's name within
// one function and the form every message displays.
func (op resOp) key() string { return types.ExprString(op.sel.X) }

// method is the called method's name.
func (op resOp) method() string { return op.sel.Sel.Name }

// resCall is the one op classifier: it unwraps e to a method call on a
// resource of the table, if it is one.
func resCall(info *types.Info, e ast.Expr) (resOp, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return resOp{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return resOp{}, false
	}
	for i := range resClasses {
		c := &resClasses[i]
		acq := slices.Contains(c.acquire, sel.Sel.Name)
		if (acq || slices.Contains(c.release, sel.Sel.Name)) && c.is(info.TypeOf(sel.X)) {
			return resOp{class: c, acquire: acq, call: call, sel: sel}, true
		}
	}
	return resOp{}, false
}

// isSyncType returns a predicate matching the named sync types (or
// pointers to them).
func isSyncType(names ...string) func(types.Type) bool {
	return func(t types.Type) bool {
		obj := namedObj(t)
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && slices.Contains(names, obj.Name())
	}
}

// isParGate reports whether t is par.Gate or *par.Gate, matching the
// real module package and the testdata stub alike.
func isParGate(t types.Type) bool {
	obj := namedObj(t)
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Gate" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/par" || strings.HasSuffix(path, "/internal/par")
}

// namedObj returns the type name of t or *t, or nil.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// Hold states. The join lattice: Unheld and Deferred are safe at exit,
// Held is a leak, and Maybe (paths disagree) is reported too — a slot
// that leaks on one path still exhausts the gate. The must-held view
// lockcheck and lockorder read is the Held entries: Held joined with
// anything but Held is Maybe, which is the intersection join.
const (
	hUnheld = iota
	hHeld
	hDeferred
	hMaybe
)

// resKey names one resource in a fact.
type resKey struct {
	kind resKind
	expr string
}

// resState is the fact for one resource.
type resState struct {
	hold uint8
	// pos is the acquire site reported on a leak.
	pos token.Pos
	// bind ties the state to the gate acquire whose boolean/error result
	// the branch refinement may still test.
	bind token.Pos
	// lock is a held mutex's module-global key (see lockOrderKey).
	lock string
}

// resBinding records that a variable holds the result of a gate
// acquire: the TryAcquire bool or the Acquire error.
type resBinding struct {
	isErr bool
	gate  string
	pos   token.Pos
}

// heldFact is the dataflow fact: hold state per resource plus live
// acquire-result bindings.
type heldFact struct {
	res  map[resKey]resState
	vars map[types.Object]resBinding
}

func (f heldFact) clone() heldFact {
	g := heldFact{res: make(map[resKey]resState, len(f.res)+1), vars: make(map[types.Object]resBinding, len(f.vars))}
	for k, v := range f.res {
		g.res[k] = v
	}
	for k, v := range f.vars {
		g.vars[k] = v
	}
	return g
}

func heldEqual(a, b any) bool {
	x, y := a.(heldFact), b.(heldFact)
	if len(x.res) != len(y.res) || len(x.vars) != len(y.vars) {
		return false
	}
	for k, v := range x.res {
		if w, ok := y.res[k]; !ok || w != v {
			return false
		}
	}
	for k, v := range x.vars {
		if w, ok := y.vars[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func heldJoin(a, b any) any {
	x, y := a.(heldFact), b.(heldFact)
	out := heldFact{res: make(map[resKey]resState, len(x.res)), vars: make(map[types.Object]resBinding)}
	for k, xs := range x.res {
		out.res[k] = joinState(xs, y.res[k])
	}
	for k, ys := range y.res {
		if _, ok := x.res[k]; !ok {
			out.res[k] = joinState(resState{}, ys)
		}
	}
	// A binding survives a merge only when both paths agree on it.
	for k, v := range x.vars {
		if w, ok := y.vars[k]; ok && w == v {
			out.vars[k] = v
		}
	}
	return out
}

func joinState(a, b resState) resState {
	if a == b {
		return a
	}
	if a.hold == b.hold {
		// Same state, different acquire sites: keep the earlier site and
		// drop the binding tie (it is no longer unambiguous).
		if b.pos != token.NoPos && (a.pos == token.NoPos || b.pos < a.pos) {
			a.pos = b.pos
		}
		a.bind = token.NoPos
		return a
	}
	if a.hold == hUnheld && b.hold == hDeferred || a.hold == hDeferred && b.hold == hUnheld {
		// Both are safe at exit; Deferred also absorbs later acquires.
		return resState{hold: hDeferred}
	}
	// One side holds (or maybe-holds) and the other does not: a leak on
	// at least one path. Keep the acquire position for the report.
	pos := a.pos
	if pos == token.NoPos {
		pos = b.pos
	}
	return resState{hold: hMaybe, pos: pos}
}

// heldFlow is the transfer context of one function body.
type heldFlow struct {
	pass *Pass
	// fnName is the enclosing declaration, which scopes local mutex keys.
	fnName string
	sums   map[*types.Func]*heldSummary
	// dones holds the WaitGroup keys this body calls Done on. Add is
	// tracked only for these: an Add whose Done runs in a spawned
	// goroutine is not this body's to balance.
	dones map[string]token.Pos
}

func (h *heldFlow) transfer(f heldFact, n ast.Node) heldFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			// Only gate acquires return a result to assign.
			if op, ok := resCall(h.pass.TypesInfo, n.Rhs[0]); ok && op.acquire {
				out := f.clone()
				k, pos := resKey{op.class.kind, op.key()}, op.call.Pos()
				// The slot may be held from here on; the branch on the
				// result refines this to held or unheld. A pending
				// deferred release absorbs the new slot.
				if out.res[k].hold != hDeferred {
					out.res[k] = resState{hold: hMaybe, pos: pos, bind: pos}
				}
				if len(n.Lhs) == 1 {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if obj := objectOf(h.pass, id); obj != nil {
							out.vars[obj] = resBinding{isErr: op.method() == "Acquire", gate: k.expr, pos: pos}
						}
					}
				}
				return out
			}
		}
		// Any other assignment kills the bindings of its targets.
		out, cloned := f, false
		for _, l := range n.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := objectOf(h.pass, id); obj != nil {
					if _, bound := f.vars[obj]; bound {
						if !cloned {
							out, cloned = f.clone(), true
						}
						delete(out.vars, obj)
					}
				}
			}
		}
		return out
	case *ast.ExprStmt:
		return h.callEffect(f, n.X, false)
	case *ast.DeferStmt:
		// A deferred release — direct, through a helper, or inside a
		// deferred func literal — releases at every exit reached from here.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			out := f
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if es, ok := m.(*ast.ExprStmt); ok {
					out = h.callEffect(out, es.X, true)
				}
				return true
			})
			return out
		}
		return h.callEffect(f, n.Call, true)
	}
	return f
}

// callEffect applies a call statement's effect. Releases (direct, or a
// gate released by a one-level helper) clear the hold; an acquire whose
// result is discarded counts as held, because nothing can refine it.
// Under defer only a release of an at-exit resource changes the state.
func (h *heldFlow) callEffect(f heldFact, e ast.Expr, deferred bool) heldFact {
	if op, ok := resCall(h.pass.TypesInfo, e); ok {
		if deferred && (op.acquire || !op.class.atExit) {
			return f
		}
		k := resKey{op.class.kind, op.key()}
		if _, tracked := h.dones[k.expr]; k.kind == resWaitGroup && !tracked {
			return f
		}
		out := f.clone()
		switch {
		case deferred:
			out.res[k] = resState{hold: hDeferred}
		case !op.acquire:
			out.res[k] = resState{hold: hUnheld}
		case out.res[k].hold != hDeferred:
			st := resState{hold: hHeld, pos: op.call.Pos()}
			if k.kind == resMutex {
				st.lock = lockOrderKey(h.pass, op.sel.X, h.fnName)
			}
			out.res[k] = st
		}
		return out
	}
	// One call level: a module function whose body releases a gate named
	// the same way.
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if s := h.sums[StaticCallee(h.pass.TypesInfo, call)]; s != nil && len(s.releases) > 0 {
			out := f.clone()
			for _, key := range s.releases {
				if deferred {
					out.res[resKey{resGate, key}] = resState{hold: hDeferred}
				} else {
					out.res[resKey{resGate, key}] = resState{hold: hUnheld}
				}
			}
			return out
		}
	}
	return f
}

// branch refines the fact along a conditional edge for the two gate
// acquisition idioms:
//
//	if g.TryAcquire() { ... }            // true edge holds, false doesn't
//	if err := g.Acquire(ctx); err != nil // nil-error edge holds
func (h *heldFlow) branch(f heldFact, cond ast.Expr, truth bool) heldFact {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return h.branch(f, u.X, !truth)
	}
	// if g.TryAcquire() { ... }
	if op, ok := resCall(h.pass.TypesInfo, cond); ok && op.method() == "TryAcquire" {
		return refineGate(f, op.key(), op.call.Pos(), truth)
	}
	// if ok { ... } with ok := g.TryAcquire()
	if id, ok := cond.(*ast.Ident); ok {
		if b, bound := f.vars[h.pass.TypesInfo.Uses[id]]; bound && !b.isErr {
			return refineGate(f, b.gate, b.pos, truth)
		}
	}
	// if err != nil / err == nil with err := g.Acquire(ctx)
	if bin, ok := cond.(*ast.BinaryExpr); ok && (bin.Op == token.NEQ || bin.Op == token.EQL) {
		x, other := bin.X, bin.Y
		if !isNilIdent(other) {
			x, other = other, x
		}
		if id, ok := ast.Unparen(x).(*ast.Ident); ok && isNilIdent(other) {
			if b, bound := f.vars[h.pass.TypesInfo.Uses[id]]; bound && b.isErr {
				// err != nil true ⇒ not held; err == nil true ⇒ held.
				return refineGate(f, b.gate, b.pos, (bin.Op == token.EQL) == truth)
			}
		}
	}
	return f
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// refineGate pins gate's state to held or unheld when the current state
// still stems from the acquire the condition tests. A missing entry is
// seeded here: `if g.TryAcquire()` acquires inside the condition itself,
// so no statement-level transfer ever ran for it.
func refineGate(f heldFact, gate string, bind token.Pos, held bool) heldFact {
	k := resKey{resGate, gate}
	st, ok := f.res[k]
	if !ok {
		st = resState{pos: bind, bind: bind}
	}
	if st.hold == hDeferred || (st.bind != bind && st.bind != token.NoPos) {
		return f
	}
	out := f.clone()
	if held {
		out.res[k] = resState{hold: hHeld, pos: st.pos, bind: bind}
	} else {
		out.res[k] = resState{hold: hUnheld}
	}
	return out
}

// heldBody is the shared result for one function body.
type heldBody struct {
	// exit is the fact at Exit with the may-panic edges joined in; its
	// res is nil when no path reaches Exit.
	exit heldFact
	// owed maps the WaitGroup keys the body owes from entry — it calls
	// Done but never Adds — to the first Done, where leakcheck reports a
	// miss when the body runs as a goroutine.
	owed map[string]token.Pos
	// locked lists, in block order, every node reached while a mutex is
	// definitely held.
	locked []lockedNode
}

// lockedNode is one node reached with mutexes definitely held.
type lockedNode struct {
	n    ast.Node
	held []heldMutex
}

// heldMutex is one definitely-held mutex: its expression, its
// module-global key, and where it was locked.
type heldMutex struct {
	expr, lock string
	pos        token.Pos
}

// heldBodyOf returns the shared result for body (nil when the body
// holds nothing), computing it on first use. fnName is the enclosing
// declaration's name.
func heldBodyOf(pass *Pass, fnName string, body *ast.BlockStmt) *heldBody {
	p := pass.Prog
	if p.heldPkg != pass.PkgPath || p.heldBodies == nil {
		p.heldPkg, p.heldBodies = pass.PkgPath, make(map[*ast.BlockStmt]*heldBody)
	}
	r, ok := p.heldBodies[body]
	if !ok {
		r = computeHeld(pass, fnName, body)
		p.heldBodies[body] = r
	}
	return r
}

// forEachHeldBody visits the shared result of every function body in
// the package, func literals included, that holds anything.
func forEachHeldBody(pass *Pass, visit func(fnName string, body *ast.BlockStmt, r *heldBody)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			forEachFuncBody(fd.Body, func(body *ast.BlockStmt) {
				if r := heldBodyOf(pass, fd.Name.Name, body); r != nil {
					visit(fd.Name.Name, body, r)
				}
			})
		}
	}
}

// forEachFuncBody visits body and the body of every func literal inside
// it, each as an independent function (a literal that acquires must
// release within itself — its lifetime is not the enclosing frame's).
// Literal bodies are excluded from the enclosing visit.
func forEachFuncBody(body *ast.BlockStmt, visit func(*ast.BlockStmt)) {
	visit(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			forEachFuncBody(lit.Body, visit)
			return false
		}
		return true
	})
}

// computeHeld runs the dataflow over one body. The pre-filter skips
// bodies that acquire no mutex or gate slot and call no Done: nothing
// there can be held.
func computeHeld(pass *Pass, fnName string, body *ast.BlockStmt) *heldBody {
	info := pass.TypesInfo
	acquires := false
	dones := make(map[string]token.Pos)
	adds := make(map[string]bool)
	// wg records a WaitGroup op; stmt marks a statement of this frame, as
	// opposed to a deferred call, where only Done counts.
	wg := func(e ast.Expr, at token.Pos, stmt bool) {
		op, ok := resCall(info, e)
		switch {
		case !ok || op.class.kind != resWaitGroup:
		case !op.acquire:
			if _, seen := dones[op.key()]; !seen {
				dones[op.key()] = at
			}
		case stmt:
			adds[op.key()] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if es, ok := m.(*ast.ExprStmt); ok {
						wg(es.X, n.Pos(), false)
					}
					return true
				})
			} else {
				wg(n.Call, n.Pos(), false)
			}
		case *ast.ExprStmt:
			wg(n.X, n.Pos(), true)
		case *ast.CallExpr:
			if op, ok := resCall(info, n); ok && op.acquire && op.class.kind != resWaitGroup {
				acquires = true
			}
		}
		return true
	})
	if !acquires && len(dones) == 0 {
		return nil
	}

	h := &heldFlow{pass: pass, fnName: fnName, sums: heldSummaries(pass.Prog), dones: dones}
	entry := heldFact{res: make(map[resKey]resState), vars: make(map[types.Object]resBinding)}
	r := &heldBody{owed: make(map[string]token.Pos)}
	for key, pos := range dones {
		if !adds[key] {
			r.owed[key] = pos
			entry.res[resKey{resWaitGroup, key}] = resState{hold: hHeld, pos: pos}
		}
	}
	cfg := pass.Prog.CFG(body)
	in := cfg.Forward(FlowAnalysis{
		Entry:    func() any { return entry },
		Transfer: func(fact any, n ast.Node) any { return h.transfer(fact.(heldFact), n) },
		Branch:   func(fact any, cond ast.Expr, truth bool) any { return h.branch(fact.(heldFact), cond, truth) },
		Join:     heldJoin,
		Equal:    heldEqual,
	})
	if exit, ok := in[cfg.Exit]; ok {
		r.exit = exit.(heldFact)
	}
	// Replay every reachable block: record the nodes reached under a
	// held mutex, and join the fact before each call through a func value
	// into Exit while an at-exit resource is held — the may-panic edge.
	for _, blk := range cfg.Blocks {
		fact, ok := in[blk]
		if !ok {
			continue
		}
		f := fact.(heldFact)
		for _, n := range blk.Nodes {
			var held []heldMutex
			atExit := false
			for k, st := range f.res {
				switch {
				case k.kind == resMutex && st.hold == hHeld:
					held = append(held, heldMutex{expr: k.expr, lock: st.lock, pos: st.pos})
				case k.kind != resMutex && (st.hold == hHeld || st.hold == hMaybe):
					atExit = true
				}
			}
			if len(held) > 0 {
				sort.Slice(held, func(i, j int) bool { return held[i].expr < held[j].expr })
				r.locked = append(r.locked, lockedNode{n: n, held: held})
			}
			if atExit && callsFuncValue(info, n) {
				if r.exit.res == nil {
					r.exit = f
				} else {
					r.exit = heldJoin(r.exit, f).(heldFact)
				}
			}
			f = h.transfer(f, n)
		}
	}
	return r
}

// callsFuncValue reports whether n calls, in this frame, through a
// func-typed value — a parameter, field or variable holding a function,
// for which StaticCallee finds no callee and which may panic. Builtins
// and conversions are not calls through a value; deferred and spawned
// calls do not run here.
func callsFuncValue(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if tv := info.Types[m.Fun]; !tv.IsType() && !tv.IsBuiltin() && StaticCallee(info, m) == nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// heldSummary is what one module function's own body does that the
// reporters see one call level away.
type heldSummary struct {
	// blocks describes the first blocking operation, e.g. "receives
	// from a channel" (lockcheck).
	blocks string
	// acquires holds the module-global keys of the mutexes the body
	// locks, sorted (lockorder).
	acquires []string
	// releases holds the gate keys the body releases, deferred and
	// inside func literals included — an over-approximation on the
	// release side only, which can hide a leak behind a conditional
	// helper but never invents one (gatecheck).
	releases []string
}

// heldSummaries computes, once per Program, the summary of every module
// function that blocks, locks, or releases a gate.
func heldSummaries(prog *Program) map[*types.Func]*heldSummary {
	return prog.Cache("held.summaries", func() any {
		out := make(map[*types.Func]*heldSummary)
		for _, node := range prog.CallGraph().Nodes {
			if node.Decl == nil || node.Decl.Body == nil {
				continue
			}
			p := &Pass{TypesInfo: node.Pkg.Info, Pkg: node.Pkg.Types, PkgPath: node.Pkg.PkgPath}
			if s := summarizeHeld(p, node.Decl); s != nil {
				out[node.Fn] = s
			}
		}
		return out
	}).(map[*types.Func]*heldSummary)
}

func summarizeHeld(p *Pass, decl *ast.FuncDecl) *heldSummary {
	s := &heldSummary{}
	nonBlocking := make(map[ast.Node]bool)
	var walk func(root ast.Node, inLit bool)
	walk = func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if !inLit {
					walk(m.Body, true)
					return false
				}
			case *ast.ExprStmt:
				if op, ok := resCall(p.TypesInfo, m.X); ok {
					if op.class.kind == resGate && !op.acquire {
						s.releases = append(s.releases, op.key())
					} else if op.class.kind == resMutex && op.acquire && !inLit {
						if key := lockOrderKey(p, op.sel.X, decl.Name.Name); !slices.Contains(s.acquires, key) {
							s.acquires = append(s.acquires, key)
						}
					}
				}
			case *ast.DeferStmt:
				if op, ok := resCall(p.TypesInfo, m.Call); ok && op.class.kind == resGate && !op.acquire {
					s.releases = append(s.releases, op.key())
				}
			}
			if inLit || s.blocks != "" || nonBlocking[m] {
				return true
			}
			switch m := m.(type) {
			case *ast.SelectStmt:
				markNonBlocking(m, nonBlocking)
			case *ast.SendStmt:
				s.blocks = "sends on a channel"
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					s.blocks = "receives from a channel"
				}
			case *ast.CallExpr:
				if w := blockingCall(p, m, nil, nil); w != "" {
					s.blocks = "calls " + w
				}
			}
			return true
		})
	}
	walk(decl.Body, false)
	if s.blocks == "" && len(s.acquires) == 0 && len(s.releases) == 0 {
		return nil
	}
	sort.Strings(s.acquires)
	return s
}
