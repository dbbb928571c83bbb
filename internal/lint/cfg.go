package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// This file builds per-function control-flow graphs — the substrate the
// interprocedural analyzers (the held-resource dataflow, chancheck) run on.
// The graph is intraprocedural and syntactic: blocks hold the statements
// (and branch condition expressions) in execution order, and conditional
// edges carry the governing condition with the truth value it takes on
// that edge, so a flow analysis can refine its facts per branch
// (e.g. "on the true edge of g.TryAcquire() the slot is held").
//
// Modeling decisions, chosen for the analyzers that consume the graph:
//
//   - One synthetic Exit block. Returns, panic(...) calls, and a handful
//     of recognized terminating calls (os.Exit, log.Fatal*, runtime.Goexit,
//     testing's t.Fatal*) all edge to it, as does falling off the end of
//     the body. Deferred calls are represented by the DeferStmt remaining
//     visible on every path that registered it — an analyzer treats "a
//     defer releasing X was executed on this path" as "X is released at
//     every exit reached from here", which is exactly Go's semantics,
//     panics included.
//   - Unreachable code after a terminator lands in a fresh block with no
//     predecessors; Forward never seeds it, and reporting passes skip
//     blocks without facts.
//   - select without a default has no fall-through edge past a case set;
//     `for { ... }` with no break has no edge to the code after it.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic join of every return, panic, and
	// end-of-body fall-through.
	Exit *Block
}

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Nodes holds statements and branch-condition expressions in
	// execution order. A condition appears both here (so transfer
	// functions see calls inside it) and on the outgoing Edges.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Edge connects two blocks, optionally carrying the branch condition
// that selects it.
type Edge struct {
	From, To *Block
	// Cond is the governing condition (nil for unconditional edges);
	// Truth is the value Cond evaluates to along this edge.
	Cond  ast.Expr
	Truth bool
}

// BuildCFG constructs the graph for a function body. A nil body (a
// declaration without implementation) yields a two-block graph with a
// single entry→exit edge.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmts(body.List)
	}
	b.edge(b.cur, b.cfg.Exit, nil, false)
	return b.cfg
}

// loopFrame records where break and continue jump for one enclosing
// breakable construct.
type loopFrame struct {
	label     string
	breakTo   *Block
	contTo    *Block // nil for switch/select frames (continue skips them)
	isLoop    bool
	rangeLoop bool
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	// labels maps a label name to the block its goto targets; forward
	// gotos record pending edges resolved when the label is reached.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// nextLabel is set by a LabeledStmt so the following loop adopts it
	// as its break/continue label.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, truth bool) {
	e := &Edge{From: from, To: to, Cond: cond, Truth: truth}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminate ends the current path (after a return/panic/goto) and parks
// subsequent statements in an unreachable block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, nil)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, s.Assign)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.terminate()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if isTerminatingCall(s.X) {
			b.edge(b.cur, b.cfg.Exit, nil, false)
			b.terminate()
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Decl, Defer, Go, Send, IncDec, ...: straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.cur.Nodes = append(b.cur.Nodes, s.Cond)
	condBlk := b.cur
	after := b.newBlock()

	thenBlk := b.newBlock()
	b.edge(condBlk, thenBlk, s.Cond, true)
	b.cur = thenBlk
	b.stmts(s.Body.List)
	b.edge(b.cur, after, nil, false)

	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(condBlk, elseBlk, s.Cond, false)
		b.cur = elseBlk
		b.stmt(s.Else)
		b.edge(b.cur, after, nil, false)
	} else {
		b.edge(condBlk, after, s.Cond, false)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	b.edge(b.cur, head, nil, false)

	b.cur = head
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		b.edge(head, body, s.Cond, true)
		b.edge(head, after, s.Cond, false)
	} else {
		// `for {}`: the only way past is a break.
		b.edge(head, body, nil, false)
	}

	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: post, isLoop: true})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, post, nil, false)
	b.frames = b.frames[:len(b.frames)-1]

	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head, nil, false)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	b.edge(b.cur, head, nil, false)
	// The RangeStmt itself marks the head so analyzers can see what is
	// being ranged over (and bind the key/value variables).
	head.Nodes = append(head.Nodes, s)
	b.edge(head, body, nil, false)
	b.edge(head, after, nil, false)

	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: head, isLoop: true, rangeLoop: true})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, head, nil, false)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// switchStmt builds value and type switches: assign is the TypeSwitch
// binding statement (nil for a value switch).
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, assign ast.Stmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	if assign != nil {
		b.cur.Nodes = append(b.cur.Nodes, assign)
	}
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after})

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, raw := range body.List {
		cc := raw.(*ast.CaseClause)
		blk := b.newBlock()
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blk, nil, false)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(head, after, nil, false)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1], nil, false)
		} else {
			b.edge(b.cur, after, nil, false)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
	for _, raw := range s.Body.List {
		cc := raw.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(head, blk, nil, false)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after, nil, false)
	}
	// select{} blocks forever: no edge past it.
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if s.Label == nil || f.label == s.Label.Name {
				b.edge(b.cur, f.breakTo, nil, false)
				b.terminate()
				return
			}
		}
		b.terminate()
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.isLoop && (s.Label == nil || f.label == s.Label.Name) {
				b.edge(b.cur, f.contTo, nil, false)
				b.terminate()
				return
			}
		}
		b.terminate()
	case "goto":
		if s.Label != nil {
			if b.labels != nil {
				if target, ok := b.labels[s.Label.Name]; ok {
					b.edge(b.cur, target, nil, false)
					b.terminate()
					return
				}
			}
			if b.pendingGotos == nil {
				b.pendingGotos = make(map[string][]*Block)
			}
			b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
		}
		b.terminate()
	case "fallthrough":
		// Handled inside switchStmt; a stray one ends the path.
		b.terminate()
	}
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	target := b.newBlock()
	b.edge(b.cur, target, nil, false)
	b.cur = target
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	b.labels[s.Label.Name] = target
	for _, from := range b.pendingGotos[s.Label.Name] {
		b.edge(from, target, nil, false)
	}
	delete(b.pendingGotos, s.Label.Name)
	b.nextLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.nextLabel = ""
}

// takeLabel consumes the label a LabeledStmt attached for the loop or
// switch being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

// terminatingCalls recognizes calls that never return, by name. This is
// syntactic (a shadowed `panic` would fool it) — acceptable for lint.
var terminatingSelectors = map[string]bool{
	"os.Exit": true, "runtime.Goexit": true,
	"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true,
	"log.Panic": true, "log.Panicf": true, "log.Panicln": true,
}

func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if terminatingSelectors[x.Name+"."+fun.Sel.Name] {
				return true
			}
			// Recognize testing's t.Fatal*/t.Skip* idiom by method name
			// (Fatal, Fatalf, FailNow, SkipNow) on a single-letter
			// receiver — fixtures and tests only; never load test files
			// in production, so this only tightens test-local graphs.
			name := fun.Sel.Name
			if len(x.Name) <= 2 && (strings.HasPrefix(name, "Fatal") || name == "FailNow" || name == "SkipNow") {
				return true
			}
		}
	}
	return false
}

// String renders the graph for debugging and the CFG shape tests.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		tag := ""
		if blk == c.Entry {
			tag = " (entry)"
		}
		if blk == c.Exit {
			tag = " (exit)"
		}
		fmt.Fprintf(&sb, "b%d%s:", blk.Index, tag)
		for _, e := range blk.Succs {
			if e.Cond != nil {
				fmt.Fprintf(&sb, " %v->b%d", e.Truth, e.To.Index)
			} else {
				fmt.Fprintf(&sb, " ->b%d", e.To.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
