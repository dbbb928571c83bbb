package lint

import "go/ast"

// FlowAnalysis is one forward dataflow problem over a CFG: the shared
// held-resource dataflow behind gatecheck, lockcheck, lockorder and
// leakcheck instantiates it with per-resource hold states (heldflow.go),
// chancheck with may-closed channel sets.
// Facts are treated as immutable values — Transfer and Branch must
// return a fresh fact rather than mutate their argument, because one
// out-fact fans out over several edges.
type FlowAnalysis struct {
	// Entry produces the fact at function entry.
	Entry func() any
	// Transfer pushes a fact through one block node (statement or
	// branch-condition expression).
	Transfer func(fact any, n ast.Node) any
	// Branch, if non-nil, refines the out-fact along a conditional edge:
	// cond evaluated to truth on this path. Used to model idioms like
	// "the true edge of g.TryAcquire() holds a slot".
	Branch func(fact any, cond ast.Expr, truth bool) any
	// Join merges facts where paths meet.
	Join func(a, b any) any
	// Equal detects the fixpoint.
	Equal func(a, b any) bool
}

// Forward runs the worklist algorithm to a fixpoint and returns the fact
// at the ENTRY of every reachable block; unreachable blocks are absent.
// After the fixpoint, re-apply Transfer across a block's Nodes to
// recover the fact at any interior point (the reporting passes do).
func (c *CFG) Forward(a FlowAnalysis) map[*Block]any {
	in := make(map[*Block]any)
	in[c.Entry] = a.Entry()
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	// The analyzers' lattices are tiny, but guard against a
	// non-converging Join with a generous iteration budget.
	budget := 64 * (len(c.Blocks) + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[0]
		work = work[1:]
		queued[blk] = false

		out := in[blk]
		for _, n := range blk.Nodes {
			out = a.Transfer(out, n)
		}
		for _, e := range blk.Succs {
			f := out
			if e.Cond != nil && a.Branch != nil {
				f = a.Branch(out, e.Cond, e.Truth)
			}
			cur, ok := in[e.To]
			next := f
			if ok {
				next = a.Join(cur, f)
			}
			if !ok || !a.Equal(cur, next) {
				in[e.To] = next
				if !queued[e.To] {
					queued[e.To] = true
					work = append(work, e.To)
				}
			}
		}
	}
	return in
}
