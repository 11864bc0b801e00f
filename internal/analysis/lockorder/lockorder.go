// Package lockorder is the flow-sensitive lock discipline analyzer. It
// runs over the engine and storage packages (tso, storage, txnshard,
// wal) plus the pipelined client (client), infers the partial
// order in which their mutexes are acquired, and enforces three rules:
//
//  1. Ordering: every pair of locks must be acquired in one consistent
//     order program-wide. Acquisition edges are collected per path
//     (including locks acquired transitively through static calls) and a
//     cycle in the resulting graph is reported once per strongly
//     connected component.
//
//  2. No blocking under a lock: a channel receive, a select without a
//     default, a range over a channel, or a Wait() call (storage.Ack,
//     sync.WaitGroup) must not execute while any engine lock is held.
//     The analysis is per-path, so releasing before the receive
//     satisfies it.
//
//  3. Publish under the log mutex: in the engine packages, the commit
//     publish step (a publishCommit method, or a function value handed to
//     Durability.LogCommit) may only run inside the LogCommit callback —
//     which the WAL invokes under its log mutex — or on a path where
//     durability is statically known to be off (dur == nil) or where
//     LogCommit already failed (its error != nil). Publishing anywhere
//     else would expose committed state before the decision is logged.
//
// Function literals passed to LogCommit / LogCreate / LogSetAllLimits are
// analyzed as if wal.Log.mu were already held, since the WAL runs them
// under it; that seeding is also what discovers the wal.Log.mu ->
// storage.Store.mu -> storage.Object.mu ordering edges.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/epsilondb/epsilondb/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:         "lockorder",
	Doc:          "enforce lock acquisition order, no blocking under engine locks, and the publish-under-log-mutex commit contract",
	ProgramLevel: true,
	Run:          run,
}

// scopePkgs are the package names whose locks participate. The client
// package joined when it grew the demultiplexing core: client.pipe.mu
// is a leaf mutex shared by the caller, writer and reader goroutines,
// and the no-blocking-under-a-lock rule is exactly the discipline that
// keeps the demux deadlock-free — waiter completion is set-fields-then-
// close(done), never a channel receive or Wait under pipe.mu or the
// per-group callGroup.mu.
var scopePkgs = map[string]bool{
	"tso": true, "storage": true, "txnshard": true, "wal": true,
	"client": true,
}

// enginePkg is the package where the publish contract applies.
const enginePkg = "tso"

// logFuncs are the durability entry points whose callback arguments run
// under the WAL's log mutex.
var logFuncs = map[string]bool{"LogCommit": true, "LogCreate": true, "LogSetAllLimits": true}

// walLogMu is the canonical id of the WAL's log mutex, seeded into the
// held set of durability callbacks.
const walLogMu = "wal.Log.mu"

// fact is the per-path dataflow state.
type fact struct {
	// held maps lock id -> acquisition position (may-analysis: union).
	held map[string]token.Pos
	// durNil is true when this path established durability == nil;
	// logErr when it established a LogCommit error != nil. Both are
	// must-facts (join = AND).
	durNil, logErr bool
}

func newFact() *fact { return &fact{held: map[string]token.Pos{}} }

func (f *fact) clone() *fact {
	g := &fact{held: make(map[string]token.Pos, len(f.held)),
		durNil: f.durNil, logErr: f.logErr}
	for k, v := range f.held {
		g.held[k] = v
	}
	return g
}

// join merges src into f, returning whether f changed.
func (f *fact) join(src *fact) bool {
	changed := false
	for k, v := range src.held {
		if _, ok := f.held[k]; !ok {
			f.held[k] = v
			changed = true
		}
	}
	and := func(dst *bool, src bool) {
		if *dst && !src {
			*dst = false
			changed = true
		}
	}
	and(&f.durNil, src.durNil)
	and(&f.logErr, src.logErr)
	return changed
}

// funcInfo is per-declaration context shared by the declaration body and
// the function literals inside it.
type funcInfo struct {
	// publishers are local function-typed variables passed to LogCommit.
	publishers map[types.Object]bool
	// logErrVars are variables assigned the error result of LogCommit.
	logErrVars map[types.Object]bool
	// seeded are the literals passed as callbacks to the log functions.
	seeded map[*ast.FuncLit]bool
	// commRecv marks receives that are select communication clauses;
	// the select header is the blocking point reported, not the clause.
	commRecv map[ast.Node]bool
	// name labels diagnostics with the enclosing declaration.
	name string
}

type edgeKey struct{ from, to string }

type checker struct {
	pass     *analysis.Pass
	graph    *analysis.CallGraph
	acquired map[*types.Func]map[string]token.Pos
	mayBlock map[*types.Func]bool
	edges    map[edgeKey]token.Pos
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:  pass,
		graph: analysis.BuildCallGraph(pass.Program),
		edges: make(map[edgeKey]token.Pos),
	}
	c.acquired = c.graph.PropagateSet(func(fn *types.Func, src *analysis.FuncSource) map[string]token.Pos {
		if !scopePkgs[src.Pkg.Types.Name()] {
			return nil
		}
		return c.directLocks(src.Pkg, src.Decl.Body)
	})
	c.mayBlock = c.graph.Propagate(func(fn *types.Func, src *analysis.FuncSource) bool {
		return scopePkgs[src.Pkg.Types.Name()] && containsBlockingOp(src.Pkg, src.Decl.Body)
	})

	for _, pkg := range pass.Program.Packages {
		if !scopePkgs[pkg.Types.Name()] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fi := gatherFuncInfo(pkg, fn)
				c.analyze(pkg, fn.Body, newFact(), fi, false)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					init := newFact()
					if fi.seeded[lit] {
						init.held[walLogMu] = lit.Pos()
					}
					c.analyze(pkg, lit.Body, init, fi, fi.seeded[lit])
					return true
				})
			}
		}
	}
	c.reportCycles()
	return nil
}

// directLocks is the flow-insensitive set of lock ids a body acquires
// anywhere (including in its non-go function literals), for transitive
// edge propagation.
func (c *checker) directLocks(pkg *analysis.Package, body *ast.BlockStmt) map[string]token.Pos {
	out := map[string]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // spawned bodies run on their own stack
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, op := lockOp(pkg, call); op == opAcquire {
				if _, seen := out[id]; !seen {
					out[id] = call.Pos()
				}
			}
		}
		return true
	})
	return out
}

// containsBlockingOp reports whether a body directly performs a blocking
// operation: channel receive, default-less select, range over a channel,
// or a Wait() call. Defers and go-spawned literals are excluded — they do
// not block the body's own locked regions.
func containsBlockingOp(pkg *analysis.Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanExpr(pkg, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if isWaitCall(pkg, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// analyze runs the dataflow over one function body and reports.
func (c *checker) analyze(pkg *analysis.Package, body *ast.BlockStmt, init *fact, fi *funcInfo, exempt bool) {
	cfg := analysis.NewCFG(body)
	flow := &analysis.Flow[*fact]{
		CFG:   cfg,
		Init:  init,
		Clone: func(f *fact) *fact { return f.clone() },
		Join:  func(dst, src *fact) bool { return dst.join(src) },
		Transfer: func(n ast.Node, f *fact) *fact {
			c.step(pkg, n, f, fi, exempt, false)
			return f
		},
		Branch: func(cond ast.Expr, taken bool, f *fact) *fact {
			return c.refine(pkg, cond, taken, f, fi)
		},
	}
	ins := flow.Run()
	// Replay reachable blocks in index order so diagnostics and edge
	// positions come out deterministic.
	for _, b := range cfg.Blocks {
		entry, ok := ins[b]
		if !ok {
			continue
		}
		f := entry.clone()
		for _, n := range b.Nodes {
			c.step(pkg, n, f, fi, exempt, true)
		}
	}
}

const (
	opNone = iota
	opAcquire
	opRelease
)

// step applies one CFG node's effects to the fact, reporting rule
// violations when report is set. The walk mirrors evaluation order so a
// release earlier in a statement list is seen before a later receive.
func (c *checker) step(pkg *analysis.Package, node ast.Node, f *fact, fi *funcInfo, exempt, report bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately
		case *ast.DeferStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false // the call itself runs at exit
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.SelectStmt:
			if report && !selectHasDefault(n) {
				c.reportBlocked(pkg, f, fi, n.Pos(), "select")
			}
			return false // comm clauses are separate CFG nodes
		case *ast.RangeStmt:
			// Only the head reaches us as a node; the body has its own
			// blocks.
			ast.Inspect(n.X, walk)
			if report && isChanExpr(pkg, n.X) {
				c.reportBlocked(pkg, f, fi, n.Pos(), "range over channel")
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ast.Inspect(n.X, walk)
				if report && !fi.commRecv[n] {
					c.reportBlocked(pkg, f, fi, n.Pos(), "channel receive")
				}
				return false
			}
		case *ast.CallExpr:
			c.call(pkg, n, f, fi, exempt, report, walk)
			return false
		}
		return true
	}
	ast.Inspect(node, walk)
}

// call handles one call expression in evaluation order: receiver and
// arguments first, then the call's own effect.
func (c *checker) call(pkg *analysis.Package, call *ast.CallExpr, f *fact, fi *funcInfo, exempt, report bool, walk func(ast.Node) bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		ast.Inspect(sel.X, walk)
	}
	for _, a := range call.Args {
		ast.Inspect(a, walk)
	}

	if id, op := lockOp(pkg, call); op != opNone {
		if op == opRelease {
			delete(f.held, id)
			return
		}
		if report {
			for _, h := range sortedHeld(f) {
				if h != id {
					c.recordEdge(h, id, call.Pos())
				}
			}
		}
		f.held[id] = call.Pos()
		return
	}

	if !report {
		return
	}

	if isWaitCall(pkg, call) {
		c.reportBlocked(pkg, f, fi, call.Pos(), calleeName(call)+"() wait")
		return
	}

	if pkg.Types.Name() == enginePkg && c.isPublisher(pkg, call, fi) && !exempt && !f.durNil && !f.logErr {
		c.pass.Reportf(call.Pos(), "in %s: commit publish outside the durability log callback: pass it to LogCommit (it runs under the log mutex) or guard with dur == nil / LogCommit error != nil", fi.name)
	}

	if callee := analysis.ResolveCallee(pkg.Info, call); callee != nil {
		for _, id := range sortedKeys(c.acquired[callee]) {
			for _, h := range sortedHeld(f) {
				if h != id {
					c.recordEdge(h, id, call.Pos())
				}
			}
		}
		if c.mayBlock[callee] && len(f.held) > 0 {
			c.reportBlocked(pkg, f, fi, call.Pos(), "call to "+callee.Name()+" (may block)")
		}
	}
}

func (c *checker) reportBlocked(pkg *analysis.Package, f *fact, fi *funcInfo, pos token.Pos, what string) {
	if len(f.held) == 0 {
		return
	}
	held := sortedHeld(f)
	c.pass.Reportf(pos, "in %s: %s while holding %s", fi.name, what, strings.Join(held, ", "))
}

func (c *checker) recordEdge(from, to string, pos token.Pos) {
	k := edgeKey{from, to}
	if _, ok := c.edges[k]; !ok {
		c.edges[k] = pos
	}
}

// isPublisher reports whether call invokes the commit publish step: a
// method named publishCommit, or a local function value that this
// declaration passes to LogCommit.
func (c *checker) isPublisher(pkg *analysis.Package, call *ast.CallExpr, fi *funcInfo) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "publishCommit"
	case *ast.Ident:
		if obj := pkg.Info.Uses[fun]; obj != nil {
			return fi.publishers[obj]
		}
	}
	return false
}

// refine strengthens the fact along a conditional edge: `dur == nil` and
// `logErr != nil` tests establish the corresponding must-facts on the
// side where they hold. && and ! are decomposed; everything else leaves
// the fact unchanged.
func (c *checker) refine(pkg *analysis.Package, cond ast.Expr, taken bool, f *fact, fi *funcInfo) *fact {
	out := f
	setDurNil := func() {
		if out == f {
			out = f.clone()
		}
		out.durNil = true
	}
	setLogErr := func() {
		if out == f {
			out = f.clone()
		}
		out.logErr = true
	}
	var apply func(e ast.Expr, taken bool)
	apply = func(e ast.Expr, taken bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				apply(e.X, !taken)
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND:
				if taken {
					apply(e.X, true)
					apply(e.Y, true)
				}
			case token.LOR:
				if !taken {
					apply(e.X, false)
					apply(e.Y, false)
				}
			case token.EQL, token.NEQ:
				x := e.X
				if isNilIdent(x) {
					x = e.Y
				} else if !isNilIdent(e.Y) {
					return
				}
				isNil := (e.Op == token.EQL) == taken
				if isNil && isDurabilityExpr(pkg, x) {
					setDurNil()
				}
				if !isNil && isLogErrVar(pkg, x, fi) {
					setLogErr()
				}
			}
		}
	}
	apply(cond, taken)
	return out
}

// gatherFuncInfo collects the declaration-scoped context: publisher
// variables, LogCommit error variables, and seeded callback literals.
func gatherFuncInfo(pkg *analysis.Package, fn *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{
		publishers: map[types.Object]bool{},
		logErrVars: map[types.Object]bool{},
		seeded:     map[*ast.FuncLit]bool{},
		commRecv:   map[ast.Node]bool{},
		name:       fn.Name.Name,
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				comm, ok := cl.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				ast.Inspect(comm.Comm, func(m ast.Node) bool {
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						fi.commRecv[u] = true
					}
					return true
				})
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || calleeName(call) != "LogCommit" || len(n.Lhs) != 2 {
				return true
			}
			if id, ok := n.Lhs[1].(*ast.Ident); ok {
				if obj := pkg.Info.Defs[id]; obj != nil {
					fi.logErrVars[obj] = true
				} else if obj := pkg.Info.Uses[id]; obj != nil {
					fi.logErrVars[obj] = true
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			if !logFuncs[name] {
				return true
			}
			for _, a := range n.Args {
				switch a := ast.Unparen(a).(type) {
				case *ast.FuncLit:
					fi.seeded[a] = true
				case *ast.Ident:
					if name != "LogCommit" {
						continue
					}
					if obj := pkg.Info.Uses[a]; obj != nil {
						if _, ok := obj.Type().Underlying().(*types.Signature); ok {
							fi.publishers[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return fi
}

// reportCycles finds strongly connected components in the acquisition
// order graph and reports each once, at its earliest edge.
func (c *checker) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for k := range c.edges {
		adj[k.from] = append(adj[k.from], k.to)
		nodes[k.from], nodes[k.to] = true, true
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	// Tarjan's algorithm, iterative enough for our graph sizes via
	// recursion (lock populations are tiny).
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, scc := range sccs {
		sort.Strings(scc)
		member := map[string]bool{}
		for _, v := range scc {
			member[v] = true
		}
		// Report at the earliest edge inside the component.
		var at token.Pos
		for k, pos := range c.edges {
			if member[k.from] && member[k.to] && (at == token.NoPos || pos < at) {
				at = pos
			}
		}
		c.pass.Reportf(at, "lock-order cycle: %s are acquired in conflicting orders", strings.Join(scc, ", "))
	}
}

// ---- syntactic and type helpers ----

// lockOp classifies a call as a lock acquisition or release and returns
// the lock's canonical id ("pkg.Type.field" for mutex fields,
// "pkg.Type.mu" for Lock/Unlock wrapper methods, "pkg.var" for
// package-level mutexes). Only locks owned by the scope packages count;
// TryLock is conditional and therefore ignored.
func lockOp(pkg *analysis.Package, call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", opNone
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return "", opNone
	}
	recv := ast.Unparen(sel.X)
	if isMutexType(typeOf(pkg, recv)) {
		// Direct form: <owner>.<field>.Lock() or <pkgvar>.Lock().
		switch x := recv.(type) {
		case *ast.SelectorExpr:
			if name := scopedTypeName(typeOf(pkg, x.X)); name != "" {
				return name + "." + x.Sel.Name, op
			}
		case *ast.Ident:
			if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() && scopePkgs[v.Pkg().Name()] {
				return v.Pkg().Name() + "." + v.Name(), op
			}
		}
		return "", opNone
	}
	// Wrapper form: a Lock/Unlock method on a scoped type guards that
	// type's own mutex (storage.Object.Lock in the real repo).
	if name := scopedTypeName(typeOf(pkg, recv)); name != "" {
		return name + ".mu", op
	}
	return "", opNone
}

// scopedTypeName returns "pkg.Type" when t (after dereferencing) is a
// named type owned by a scope package, else "".
func scopedTypeName(t types.Type) string {
	named := namedOf(t)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !scopePkgs[obj.Pkg().Name()] {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func typeOf(pkg *analysis.Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isWaitCall matches zero-argument methods named Wait: storage.Ack.Wait,
// the WAL's internal ack, and sync.WaitGroup.Wait all block.
func isWaitCall(pkg *analysis.Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" || len(call.Args) != 0 {
		return false
	}
	// Must be a method selection, not a package-qualified function.
	if s, ok := pkg.Info.Selections[sel]; ok {
		_, isFunc := s.Obj().(*types.Func)
		return isFunc
	}
	return false
}

// isDurabilityExpr reports whether e has the storage.Durability interface
// type.
func isDurabilityExpr(pkg *analysis.Package, e ast.Expr) bool {
	named := namedOf(typeOf(pkg, e))
	if named == nil || !types.IsInterface(named) {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Durability" && obj.Pkg() != nil && obj.Pkg().Name() == "storage"
}

func isLogErrVar(pkg *analysis.Package, e ast.Expr, fi *funcInfo) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[id]
	return obj != nil && fi.logErrVars[obj]
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isChanExpr(pkg *analysis.Package, e ast.Expr) bool {
	t := typeOf(pkg, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cl, ok := c.(*ast.CommClause); ok && cl.Comm == nil {
			return true
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

func sortedHeld(f *fact) []string {
	return sortedKeys(f.held)
}

func sortedKeys(m map[string]token.Pos) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
