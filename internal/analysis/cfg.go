package analysis

// This file is the intraprocedural control-flow layer the flow-sensitive
// analyzers (lockorder, goleak, errprop, the upgraded epsiloncheck) are
// built on. A CFG is a set of basic blocks over one function body;
// statements stay whole (a block's Nodes are ast.Stmt/ast.Expr in source
// order) so transfer functions can inspect them with ast.Inspect. Branch
// conditions are exposed on the block that ends with them (Cond), with
// the true edge first, so dataflow can refine facts per edge — the
// publish-under-log-mutex rule depends on knowing which side of a
// `durErr != nil` test a path took.
//
// Function literals are NOT inlined: a FuncLit is an opaque expression in
// its enclosing CFG, and analyzers build a separate CFG for its body.
// Panic calls are treated as exits.

import (
	"go/ast"
)

// Block is one basic block: straight-line nodes and the edges out.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes are the statements and expressions executed in order.
	Nodes []ast.Node
	// Succs are the successor blocks. When Cond is set, Succs[0] is the
	// branch taken when Cond is true and Succs[1] when it is false.
	Succs []*Block
	// Cond is the branch condition ending this block, if any.
	Cond ast.Expr
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the synthetic block every return, panic and fall-off-end
	// reaches; a function whose Exit is unreachable cannot terminate.
	Exit *Block
	// Blocks lists every block, entry first. Unreachable blocks (code
	// after return, bodies of dead branches) are included.
	Blocks []*Block
}

// Reachable returns the set of blocks reachable from the entry.
func (g *CFG) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}

// Terminates reports whether the function can reach its exit: some path
// returns, panics, or falls off the end. A body whose only steady state
// is an unbreakable loop does not terminate.
func (g *CFG) Terminates() bool { return g.Reachable()[g.Exit] }

// cfgBuilder accumulates blocks for one function body.
type cfgBuilder struct {
	g   *CFG
	cur *Block
	// breakTo / continueTo are the innermost targets; labels maps a label
	// name to its loop's targets for labeled break/continue and to the
	// labeled statement's entry block for goto.
	breakTo    *Block
	continueTo *Block
	labels     map[string]*labelTarget
	// gotos are forward gotos awaiting their label's block.
	gotos []pendingGoto
}

type labelTarget struct {
	entry      *Block // where goto jumps
	breakTo    *Block // labeled break target (loops/switch/select)
	continueTo *Block // labeled continue target (loops)
}

type pendingGoto struct {
	from  *Block
	label string
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*labelTarget)}
	b.g.Entry = b.newBlock()
	b.cur = b.g.Entry
	b.g.Exit = b.newBlock()
	b.stmts(body.List)
	// Falling off the end returns.
	b.edge(b.cur, b.g.Exit)
	// Resolve forward gotos; unknown labels (malformed source) dangle.
	for _, pg := range b.gotos {
		if t := b.labels[pg.label]; t != nil && t.entry != nil {
			b.edge(pg.from, t.entry)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// startBlock begins a fresh current block with no predecessors; used
// after a terminating statement so trailing dead code still gets blocks.
func (b *cfgBuilder) startBlock() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.g.Exit)
		b.startBlock()

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.edge(b.cur, b.g.Exit)
			b.startBlock()
		}

	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		condBlk := b.cur
		condBlk.Nodes = append(condBlk.Nodes, s.Cond)
		condBlk.Cond = s.Cond
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		join := b.newBlock()
		b.cur = thenBlk
		b.stmts(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		from := b.cur
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		exit := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
			b.edge(head, body)
			b.edge(head, exit)
		} else {
			// for {}: the only way out is break/return inside the body.
			b.edge(head, body)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.loopBody(from, body, s.Body.List, exit, post)
		b.cur = exit

	case *ast.RangeStmt:
		from := b.cur
		head := b.newBlock()
		b.edge(b.cur, head)
		// The range expression is evaluated at the head; iteration both
		// continues and finishes from there.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.loopBody(from, body, s.Body.List, exit, head)
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.branching(s)

	case *ast.LabeledStmt:
		name := s.Label.Name
		entry := b.newBlock()
		b.edge(b.cur, entry)
		b.cur = entry
		t := &labelTarget{entry: entry}
		b.labels[name] = t
		b.stmt(s.Stmt)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.GoStmt:
		// The spawned body is a separate function; the statement itself
		// does not affect this CFG's control flow.
		b.cur.Nodes = append(b.cur.Nodes, s)

	default:
		// Assign, Decl, IncDec, Send, Defer, Empty: straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// loopBody builds the body statements into the body block with
// break/continue retargeted, and registers the targets on any label
// whose statement is this loop (for labeled break/continue). from is
// the block that was current when the loop statement began — a label's
// entry block when the loop is labeled.
func (b *cfgBuilder) loopBody(from, body *Block, list []ast.Stmt, breakTo, continueTo *Block) {
	for _, t := range b.labels {
		if t.entry == from && t.breakTo == nil {
			// `L: for ...` — labeled jumps target this loop.
			t.breakTo, t.continueTo = breakTo, continueTo
		}
	}
	savedB, savedC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = breakTo, continueTo
	b.cur = body
	b.stmts(list)
	b.edge(b.cur, continueTo)
	b.breakTo, b.continueTo = savedB, savedC
}

// branch handles break/continue/goto/fallthrough.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.cur.Nodes = append(b.cur.Nodes, s)
	switch s.Tok.String() {
	case "break":
		target := b.breakTo
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.breakTo != nil {
				target = t.breakTo
			}
		}
		if target != nil {
			b.edge(b.cur, target)
		}
		b.startBlock()
	case "continue":
		target := b.continueTo
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.continueTo != nil {
				target = t.continueTo
			}
		}
		if target != nil {
			b.edge(b.cur, target)
		}
		b.startBlock()
	case "goto":
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.startBlock()
	case "fallthrough":
		// Handled structurally in branching: the clause block falls into
		// the next clause's body. Nothing extra here.
	}
}

// branching builds switch/type-switch/select. Every clause is reachable
// from the header; a switch without a default can also fall past, while
// a select without a default blocks until some clause runs.
func (b *cfgBuilder) branching(s ast.Stmt) {
	var body *ast.BlockStmt
	isSelect := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		body = s.Body
	case *ast.SelectStmt:
		// The select itself is a node so analyzers can see the blocking
		// point with the incoming fact.
		b.cur.Nodes = append(b.cur.Nodes, s)
		body = s.Body
		isSelect = true
	}
	head := b.cur
	join := b.newBlock()

	hasDefault := false
	type clauseBlocks struct {
		entry *Block
		stmts []ast.Stmt
		comm  ast.Stmt
	}
	var clauses []clauseBlocks
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			clauses = append(clauses, clauseBlocks{entry: b.newBlock(), stmts: cl.Body})
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			clauses = append(clauses, clauseBlocks{entry: b.newBlock(), stmts: cl.Body, comm: cl.Comm})
		}
	}
	for i, cl := range clauses {
		b.edge(head, cl.entry)
		b.cur = cl.entry
		if cl.comm != nil {
			// The communication op (receive/send) runs on clause entry.
			b.stmt(cl.comm)
		}
		savedB := b.breakTo
		b.breakTo = join
		// Track fallthrough: if the clause ends with one, flow into the
		// next clause's body instead of the join.
		ft := len(cl.stmts) > 0 && isFallthrough(cl.stmts[len(cl.stmts)-1])
		b.stmts(cl.stmts)
		if ft && i+1 < len(clauses) {
			b.edge(b.cur, clauses[i+1].entry)
			b.startBlock()
		}
		b.edge(b.cur, join)
		b.breakTo = savedB
	}
	if !hasDefault && !isSelect {
		// No case matched: fall past the switch.
		b.edge(head, join)
	}
	if isSelect && len(clauses) == 0 {
		// select{} blocks forever: no edge to join.
		_ = head
	}
	b.cur = join
}

func isFallthrough(s ast.Stmt) bool {
	br, ok := s.(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// isPanicCall reports whether call looks like the builtin panic. The CFG
// builder has no type information, so a shadowed panic identifier would
// be misread; the repo does not shadow it.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
