package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LeakCheck guards the service packages against goroutines that can
// block forever. A goroutine parked on a channel send nobody receives,
// a receive nobody closes, or a Gate.Acquire with an uncancellable
// context never crashes and never races — it just pins its stack, its
// captures, and (transitively) whatever is waiting on it, which is how
// a long-lived server turns a rare early return into a slow memory
// leak. The check walks every `go` statement in internal/server,
// internal/cluster, internal/par, and internal/memo and demands an
// escape for each potentially-blocking operation:
//
//   - a send escapes via a select with a default or ctx.Done() case, or
//     by targeting a channel made with a non-zero buffer in the
//     spawning function (the cap-1 result-channel idiom);
//   - a receive (or range) escapes via such a select, by reading
//     ctx.Done() or a timer channel, or when some module function
//     closes the channel object (the close-signal escape);
//   - a select escapes as a unit when any one of its cases can;
//   - Gate.Acquire must not be handed context.Background()/TODO().
//
// Two WaitGroup rules report over the shared held-resource dataflow
// (heldflow.go), where Add acquires a count and Done releases it:
//
//   - a goroutine body that calls wg.Done starts out owing it, and must
//     reach a Done (or register a defer of one) on every path — a
//     conditional Done hangs wg.Wait;
//   - the leader rule: a body that both Adds and Dones one key outside
//     func literals — a coalesced flight's leader — must balance them on
//     every path, and a call through a func-typed value between them is
//     a may-panic edge to Exit. A compute that panics past a plain Done
//     wedges every follower in Wait; only a deferred Done covers it.
//
// Soundness limits: channels reaching the goroutine as function
// parameters are exempt (ownership and close site are the caller's),
// buffering is only known for make calls with constant capacity in the
// spawning function, and named-function goroutines are analyzed only
// when declared in the same package.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "flag goroutines in the service packages that can block forever on a channel op or Gate.Acquire with no ctx/close escape; require wg.Done on every goroutine path, and a leader's wg.Add balanced by Done on every path, panics included",
	Scope: func(pkgPath string) bool {
		for _, sub := range []string{"internal/server", "internal/cluster", "internal/par", "internal/memo"} {
			if strings.HasSuffix(pkgPath, sub) || strings.Contains(pkgPath, sub+"/") {
				return true
			}
		}
		return false
	},
	Run: runLeakCheck,
}

func runLeakCheck(pass *Pass) {
	closed := closedChanObjs(pass)
	reported := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			env := &leakEnv{
				caps:   chanMakeCaps(pass, fd.Body),
				params: paramObjs(pass, fd.Type),
				closed: closed,
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoroutine(pass, fd.Name.Name, g, env, reported)
				return true
			})
		}
	}
	forEachHeldBody(pass, func(_ string, _ *ast.BlockStmt, r *heldBody) {
		for k, st := range r.exit.res {
			if _, owed := r.owed[k.expr]; k.kind != resWaitGroup || owed || st.hold != hHeld && st.hold != hMaybe || reported[st.pos] {
				continue
			}
			reported[st.pos] = true
			pass.Reportf(st.pos, "%[1]s.Add is not balanced by %[1]s.Done() on every path, panics included; a skipped Done blocks every %[1]s.Wait() forever — defer %[1]s.Done() right after the Add", k.expr)
		}
	})
}

// leakEnv is what the spawning function knows about the channels a
// goroutine touches.
type leakEnv struct {
	// caps maps channel objects to the constant capacity of the make()
	// that created them (-1 for a non-constant capacity).
	caps map[types.Object]int64
	// params holds objects that entered as function parameters — exempt,
	// their ownership is the caller's.
	params map[types.Object]bool
	// closed holds every channel object some module function closes.
	closed map[types.Object]bool
}

// checkGoroutine analyzes one go statement's body: a func literal
// directly, or a named callee declared in the same package. fnName is
// the declaration enclosing the go statement.
func checkGoroutine(pass *Pass, fnName string, g *ast.GoStmt, env *leakEnv, reported map[token.Pos]bool) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		inner := &leakEnv{caps: env.caps, closed: env.closed, params: make(map[types.Object]bool, len(env.params))}
		for o := range env.params {
			inner.params[o] = true
		}
		for o := range paramObjs(pass, lit.Type) {
			inner.params[o] = true
		}
		checkGoroutineBody(pass, lit.Body, inner, reported)
		checkGoroutineWaitGroup(pass, fnName, lit.Body, reported)
		return
	}
	callee := StaticCallee(pass.TypesInfo, g.Call)
	if callee == nil {
		return
	}
	node := pass.Prog.CallGraph().NodeOf(callee)
	if node == nil || node.Decl == nil || node.Decl.Body == nil || node.Pkg.PkgPath != pass.PkgPath {
		return
	}
	inner := &leakEnv{
		caps:   chanMakeCaps(pass, node.Decl.Body),
		params: paramObjs(pass, node.Decl.Type),
		closed: env.closed,
	}
	checkGoroutineBody(pass, node.Decl.Body, inner, reported)
	checkGoroutineWaitGroup(pass, node.Decl.Name.Name, node.Decl.Body, reported)
}

// checkGoroutineBody scans one goroutine body for blocking operations
// with no escape. Nested func literals (including nested go statements)
// run on their own goroutines or frames and are skipped.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt, env *leakEnv, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if !selectEscapes(pass, m, env) {
					report(m.Pos(), "select in goroutine where every case can block forever; add a default, a ctx.Done() case, or a close-signal channel — a parked goroutine leaks its stack and captures")
				}
				for _, c := range m.Body.List {
					cc := c.(*ast.CommClause)
					for _, s := range cc.Body {
						walk(s)
					}
				}
				return false
			case *ast.SendStmt:
				if why := sendBlocks(pass, m.Chan, env); why != "" {
					report(m.Pos(), "goroutine sends on %s; if no receiver arrives the goroutine blocks forever — %s", types.ExprString(m.Chan), why)
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					if why := recvBlocks(pass, m.X, env); why != "" {
						report(m.Pos(), "goroutine receives from %s with no close-signal or cancellation escape; %s", types.ExprString(m.X), why)
					}
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(m.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if why := recvBlocks(pass, m.X, env); why != "" {
							report(m.Pos(), "goroutine ranges over %s with no close-signal escape; %s", types.ExprString(m.X), why)
						}
					}
				}
			case *ast.CallExpr:
				if op, ok := resCall(pass.TypesInfo, m); ok && op.method() == "Acquire" && len(m.Args) > 0 {
					if pkg, name := backgroundCtx(pass, m.Args[0]); pkg != "" {
						report(m.Pos(), "goroutine blocks in %s.Acquire with context.%s(); no cancellation can ever release it — plumb a cancellable ctx", op.key(), name)
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// sendBlocks classifies a non-select send: "" when it has an escape,
// otherwise the reason it can park forever.
func sendBlocks(pass *Pass, ch ast.Expr, env *leakEnv) string {
	obj := chanObj(pass, ch)
	if obj == nil || env.params[obj] {
		return "" // unknown origin or caller-owned: not provable here
	}
	cap, known := env.caps[obj]
	if !known {
		return "" // buffering unknown (field/global): not provable
	}
	if cap != 0 {
		return "" // buffered result-channel idiom (or non-constant cap)
	}
	return "the channel is unbuffered; use a buffered channel or a select with ctx.Done()"
}

// recvBlocks classifies a non-select receive/range: "" when it has an
// escape (closed somewhere, ctx.Done/timer source, caller-owned).
func recvBlocks(pass *Pass, ch ast.Expr, env *leakEnv) string {
	ch = ast.Unparen(ch)
	if isCancelOrTimerChan(pass, ch) {
		return ""
	}
	obj := chanObj(pass, ch)
	if obj == nil || env.params[obj] {
		return ""
	}
	if env.closed[obj] {
		return "" // the close-signal escape: some module function closes it
	}
	return "no module function closes this channel, so a missing send parks the goroutine forever"
}

// selectEscapes reports whether a select has at least one case that
// cannot block forever: a default clause, a ctx.Done()/timer receive, a
// receive on a channel the module closes, or any comm the per-op rules
// already accept.
func selectEscapes(pass *Pass, sel *ast.SelectStmt, env *leakEnv) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			if sendBlocks(pass, comm.Chan, env) == "" {
				return true
			}
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				if recvBlocks(pass, u.X, env) == "" {
					return true
				}
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					if recvBlocks(pass, u.X, env) == "" {
						return true
					}
				}
			}
		}
	}
	return false
}

// isCancelOrTimerChan recognizes channel expressions that fire on
// cancellation or time: ctx.Done(), time.After/Tick(...), and the C
// field of a time.Timer/Ticker.
func isCancelOrTimerChan(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" && isContextType(pass.TypesInfo.TypeOf(sel.X)) {
				return true
			}
			if pkg, name := resolvePkgFunc(pass, sel); pkg == "time" && (name == "After" || name == "Tick") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "C" {
			if t := pass.TypesInfo.TypeOf(e.X); t != nil {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" {
					return true
				}
			}
		}
	}
	return false
}

// backgroundCtx returns ("context", "Background"|"TODO") when e is a
// direct context.Background()/context.TODO() call.
func backgroundCtx(pass *Pass, e ast.Expr) (string, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if pkg, name := resolvePkgFunc(pass, sel); pkg == "context" && (name == "Background" || name == "TODO") {
		return pkg, name
	}
	return "", ""
}

// chanObj resolves the object a channel expression names: a local or
// package variable, or a struct field (via the selection).
func chanObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := pass.TypesInfo.Uses[e]; o != nil {
			return o
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			return sel.Obj()
		}
		if o := pass.TypesInfo.Uses[e.Sel]; o != nil {
			return o
		}
	}
	return nil
}

// chanMakeCaps maps channel objects to the constant capacity of the
// make() that created them, for every assignment or var declaration in
// body. A make with no capacity maps to 0; a non-constant capacity maps
// to -1 (unknown, treated as "not provably unbuffered").
func chanMakeCaps(pass *Pass, body *ast.BlockStmt) map[types.Object]int64 {
	out := make(map[types.Object]int64)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "make" || len(call.Args) == 0 {
			return
		}
		if t := pass.TypesInfo.TypeOf(call); t == nil {
			return
		} else if _, ok := t.Underlying().(*types.Chan); !ok {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		if len(call.Args) == 1 {
			out[obj] = 0
			return
		}
		if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil {
			if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				out[obj] = n
				return
			}
		}
		out[obj] = -1
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// paramObjs collects the objects of ft's parameters (receivers are not
// parameters of the literal and stay checked).
func paramObjs(pass *Pass, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft == nil || ft.Params == nil {
		return out
	}
	for _, fld := range ft.Params.List {
		for _, name := range fld.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// closedChanObjs computes, once per Program, the set of channel objects
// some module function closes — the close-signal escape a parked
// receive relies on.
func closedChanObjs(pass *Pass) map[types.Object]bool {
	v := pass.Prog.Cache("leakcheck.closed", func() any {
		out := make(map[types.Object]bool)
		for _, pkg := range pass.Prog.Pkgs {
			p := &Pass{TypesInfo: pkg.Info}
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return true
					}
					if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "close" {
						return true
					}
					if obj := chanObj(p, call.Args[0]); obj != nil {
						out[obj] = true
					}
					return true
				})
			}
		}
		return out
	})
	return v.(map[types.Object]bool)
}

// checkGoroutineWaitGroup demands that a goroutine body calling wg.Done
// on some path reaches a Done (or registers a defer of one) on every
// path — the spawner's wg.Add(1) is otherwise never balanced.
func checkGoroutineWaitGroup(pass *Pass, fnName string, body *ast.BlockStmt, reported map[token.Pos]bool) {
	r := heldBodyOf(pass, fnName, body)
	if r == nil {
		return
	}
	keys := make([]string, 0, len(r.owed))
	for key := range r.owed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pos := r.owed[key]
		if st := r.exit.res[resKey{resWaitGroup, key}]; st.hold != hHeld && st.hold != hMaybe || reported[pos] {
			continue
		}
		reported[pos] = true
		pass.Reportf(pos, "%s.Done() is not reached on every path of this goroutine; a skipped Done hangs %s.Wait() forever — defer it at the top of the goroutine", key, key)
	}
}
