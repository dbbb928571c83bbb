package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// LockCheck forbids blocking while holding a sync.Mutex or sync.RWMutex.
// A channel operation, a network/HTTP call, a time.Sleep, a
// sync.WaitGroup.Wait, or a par.Gate.Acquire under a held lock turns
// every other goroutine contending for that lock into a hostage of the
// slowest peer — the classic service-layer stall that -race never sees
// because it is a liveness bug, not a data race.
//
// It reports over the must-held view of the shared held-resource
// dataflow (heldflow.go): the mutexes definitely held (join =
// intersection, so conditional locking never over-reports). defer
// mu.Unlock() does NOT end the critical section — the lock stays held
// to function exit, which is the point of the idiom and of the check. Interprocedural reach is one call level
// deep: calling a module function whose own body directly contains a
// blocking operation is flagged too.
//
// Soundness limits: receivers are matched textually (mu in a helper is
// not this mu), dynamic calls are invisible, operations inside a
// select with a default clause are non-blocking by construction and
// exempt, and only direct callee bodies are summarized (depth one, no
// transitive closure).
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "forbid channel ops, net/http calls, Gate.Acquire, and other blocking calls while a sync.Mutex/RWMutex is held",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) {
	sums := heldSummaries(pass.Prog)
	forEachHeldBody(pass, func(_ string, body *ast.BlockStmt, r *heldBody) {
		if len(r.locked) == 0 {
			return
		}
		nonBlocking := nonBlockingComms(body)
		caps := chanMakeCaps(pass, body)
		reported := make(map[token.Pos]bool)
		for _, ln := range r.locked {
			reportBlockingOps(pass, ln.n, ln.held, sums, nonBlocking, caps, reported)
		}
	})
}

// nonBlockingComms marks the comm statements of every select that has a
// default clause — those sends/receives cannot block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			markNonBlocking(sel, out)
		}
		return true
	})
	return out
}

// markNonBlocking marks sel's comm statements, and every node inside
// them, when sel has a default clause.
func markNonBlocking(sel *ast.SelectStmt, out map[ast.Node]bool) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if cc := c.(*ast.CommClause); cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		return
	}
	for _, c := range sel.Body.List {
		if cc := c.(*ast.CommClause); cc.Comm != nil {
			// Receives appear as expression or assignment comms.
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				out[m] = true
				return true
			})
		}
	}
}

// reportBlockingOps scans one CFG node for operations that can block,
// reporting each against the currently held mutexes.
func reportBlockingOps(pass *Pass, n ast.Node, held []heldMutex, sums map[*types.Func]*heldSummary, nonBlocking map[ast.Node]bool, caps map[types.Object]int64, reported map[token.Pos]bool) {
	report := func(pos token.Pos, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		keys := make([]string, len(held))
		for i, m := range held {
			keys[i] = m.expr
		}
		pass.Reportf(pos, "%s while holding %s; release the lock first — a blocked holder stalls every goroutine contending for it", what, strings.Join(keys, ", "))
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a literal's ops run when it runs, not here
		}
		if nonBlocking[m] {
			return true
		}
		switch m := m.(type) {
		case *ast.SendStmt:
			// A provably-unbuffered send is a rendezvous: it blocks until
			// a receiver arrives, the worst case of the rule (chancheck's
			// unbuffered-send-under-lock discipline lands here).
			what := "channel send"
			if obj := chanObj(pass, m.Chan); obj != nil {
				if c, known := caps[obj]; known && c == 0 {
					what = "unbuffered channel send"
				}
			}
			report(m.Pos(), what)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				report(m.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(m.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if what := blockingCall(pass, m, held, sums); what != "" {
				report(m.Pos(), what)
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking: Gate.Acquire, time.Sleep,
// WaitGroup.Wait, a second Lock of an already-held mutex, anything from
// net or net/http, or (one level deep) a module function whose body
// blocks.
func blockingCall(pass *Pass, call *ast.CallExpr, held []heldMutex, sums map[*types.Func]*heldSummary) string {
	if op, ok := resCall(pass.TypesInfo, call); ok && op.acquire {
		switch {
		case op.method() == "Acquire":
			return "Gate.Acquire (blocks for an admission slot)"
		case op.class.kind == resMutex && slices.ContainsFunc(held, func(m heldMutex) bool { return m.expr == op.key() }):
			return "second Lock of the held mutex (self-deadlock)"
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, name := resolvePkgFunc(pass, sel); pkg != "" {
			if pkg == "time" && name == "Sleep" {
				return "time.Sleep"
			}
			if pkg == "net" || pkg == "net/http" || strings.HasPrefix(pkg, "net/") {
				return pkg + "." + name + " (network I/O)"
			}
		}
		// Methods on net/http types (http.Client.Do, net.Conn.Read, ...).
		if obj := namedObj(pass.TypesInfo.TypeOf(sel.X)); obj != nil && obj.Pkg() != nil {
			path := obj.Pkg().Path()
			if path == "net" || path == "net/http" || strings.HasPrefix(path, "net/") {
				return path + " method call (network I/O)"
			}
			if path == "sync" && obj.Name() == "WaitGroup" && sel.Sel.Name == "Wait" {
				return "sync.WaitGroup.Wait"
			}
		}
	}
	if callee := StaticCallee(pass.TypesInfo, call); callee != nil {
		if s := sums[callee]; s != nil && s.blocks != "" {
			return "call to " + callee.Name() + " (its body " + s.blocks + ")"
		}
	}
	return ""
}
