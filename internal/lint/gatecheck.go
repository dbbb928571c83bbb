package lint

import (
	"go/ast"
	"go/token"
)

// GateCheck proves that every par.Gate slot taken by Acquire or
// TryAcquire is released on every control-flow path out of the function
// — error returns, panics (via a registered defer), and early breaks
// included. A leaked slot never crashes: it silently lowers the gate's
// effective capacity until the service stops admitting work, which is
// exactly the failure mode a load test times out on instead of
// diagnosing.
//
// It reports over the shared held-resource dataflow (heldflow.go),
// whose gate facts track, per gate expression, whether a slot is held,
// released by a pending defer, or only maybe-held (paths disagree). The
// dataflow is path-sensitive across the two acquisition idioms:
//
//	if g.TryAcquire() { ... }            // true edge holds, false doesn't
//	if err := g.Acquire(ctx); err != nil // nil-error edge holds
//
// A call through a func-typed value while a slot is held is a may-panic
// edge to Exit: only a deferred release covers it.
//
// Interprocedural reach is one call level deep and release-side only: a
// call to a module function whose body unconditionally calls
// g.Release() counts as a release of g (receiver expressions are
// matched textually, so the helper must name the gate the same way).
// Acquire results returned to the caller transfer ownership and are the
// caller's to release.
var GateCheck = &Analyzer{
	Name: "gatecheck",
	Doc:  "require every par.Gate Acquire/TryAcquire slot to be released on all CFG paths (defers included)",
	Run:  runGateCheck,
}

func runGateCheck(pass *Pass) {
	forEachHeldBody(pass, func(_ string, _ *ast.BlockStmt, r *heldBody) {
		reported := make(map[token.Pos]bool)
		for k, st := range r.exit.res {
			if k.kind != resGate || st.hold != hHeld && st.hold != hMaybe || st.pos == token.NoPos || reported[st.pos] {
				continue
			}
			reported[st.pos] = true
			how := "is not released"
			if st.hold == hMaybe {
				how = "is not released on every path"
			}
			pass.Reportf(st.pos, "gate slot acquired on %s %s before the function returns; release it (or defer %s.Release()) on all paths, error returns and panics included", k.expr, how, k.expr)
		}
	})
}
