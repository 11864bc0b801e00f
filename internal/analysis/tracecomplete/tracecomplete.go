// Package tracecomplete verifies that the engine's trace stream is
// complete: every transaction state transition — begin, read, write,
// commit, abort — emits its trace event before the engine returns control
// (and thus before the client is acked). The offline epsilon-
// serializability oracle (internal/esrcheck) replays recorded histories
// and proves or refutes the bounds from the events alone, so a single
// transition that commits state without tracing it silently blinds the
// oracle; this analyzer makes the completeness obligation static.
//
// The transition markers are the calls the engine already makes to its
// metrics *Collector — Begin, ReadExecuted, WriteExecuted, Commit, Abort
// — because each marks exactly one successful state transition. For each
// marker call in the engine package (tso) the analyzer
// demands that on every control-flow path through the function, a trace
// emission of the corresponding event kind (EvBegin, EvRead, EvWrite,
// EvCommit, EvAbort) happens either before the marker or between the
// marker and the function's exit. A violation therefore needs two
// witnesses: an emission-free path from entry to the marker AND an
// emission-free path from the marker to the exit.
//
// An emission is a call to a method named Trace (the tso.Tracer
// interface, matched by name since interface dispatch is not statically
// resolvable) or a call whose callee transitively reaches one, computed
// over the program call graph. The event kind is narrowed at the call
// site from an Event{Kind: EvX, ...} composite-literal argument; a
// non-literal event argument emits an unknown kind and satisfies any
// obligation. Emissions inside `go` statements do not count: a spawned
// goroutine runs after the engine may already have acked the client, so
// the event could be reordered after — or lost entirely on a crash
// between ack and emission.
package tracecomplete

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/epsilondb/epsilondb/internal/analysis"
)

// Analyzer is the trace-completeness check.
var Analyzer = &analysis.Analyzer{
	Name:         "tracecomplete",
	Doc:          "engine state transitions must emit their trace event before returning (oracle trace completeness)",
	ProgramLevel: true,
	Run:          run,
}

// enginePkg is the package whose transitions feed the oracle.
const enginePkg = "tso"

// markerEvent maps a Collector transition method to the event kind its
// trace emission must carry.
var markerEvent = map[string]string{
	"Begin":         "EvBegin",
	"ReadExecuted":  "EvRead",
	"WriteExecuted": "EvWrite",
	"Commit":        "EvCommit",
	"Abort":         "EvAbort",
}

// kindSet is the set of event kinds a call may emit. all covers every
// kind (an emission whose Event argument is not a composite literal).
type kindSet struct {
	all   bool
	kinds map[string]bool
}

func (k kindSet) empty() bool { return !k.all && len(k.kinds) == 0 }
func (k kindSet) covers(ev string) bool {
	return k.all || k.kinds[ev]
}

func (k *kindSet) merge(o kindSet) bool {
	changed := false
	if o.all && !k.all {
		k.all = true
		changed = true
	}
	for kind := range o.kinds {
		if !k.kinds[kind] {
			if k.kinds == nil {
				k.kinds = make(map[string]bool)
			}
			k.kinds[kind] = true
			changed = true
		}
	}
	return changed
}

// marker is one transition call found in a function body.
type marker struct {
	pos    token.Pos
	method string
	event  string
}

// emission is one trace-emitting call found in a function body.
type emission struct {
	pos   token.Pos
	kinds kindSet
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass.Program)
	emitters := buildEmitters(g)

	for _, pkg := range pass.Program.Packages {
		if pkg.Types.Name() != enginePkg {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkBody(pass, pkg, emitters, fn.Body)
				// Go-spawned literal bodies run outside the caller's
				// extent; any marker inside one carries its own
				// obligation, checked against that body alone.
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
						checkBody(pass, pkg, emitters, lit.Body)
					}
					return true
				})
			}
		}
	}
	return nil
}

// checkBody verifies every transition marker in one function body.
func checkBody(pass *analysis.Pass, pkg *analysis.Package, emitters map[*types.Func]kindSet, body *ast.BlockStmt) {
	cfg := analysis.NewCFG(body)

	markersOf := make(map[*analysis.Block][]marker)
	emitsOf := make(map[*analysis.Block][]emission)
	any := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			scanNode(pkg, emitters, n, func(m marker) {
				markersOf[b] = append(markersOf[b], m)
				any = true
			}, func(e emission) {
				emitsOf[b] = append(emitsOf[b], e)
			})
		}
	}
	if !any {
		return
	}

	for _, b := range cfg.Blocks {
		for _, m := range markersOf[b] {
			if missingBefore(cfg, emitsOf, b, m) && missingAfter(cfg, emitsOf, b, m) {
				pass.Reportf(m.pos,
					"Collector.%s acked without a %s trace event on some path: the offline checker would miss this transition",
					m.method, m.event)
			}
		}
	}
}

// missingBefore reports whether some path from the entry reaches the
// marker without emitting its event kind.
func missingBefore(cfg *analysis.CFG, emitsOf map[*analysis.Block][]emission, mb *analysis.Block, m marker) bool {
	// Within the marker's own block, an earlier emission covers every
	// path (blocks are straight-line).
	for _, e := range emitsOf[mb] {
		if e.pos < m.pos && e.kinds.covers(m.event) {
			return false
		}
	}
	clean := func(b *analysis.Block) bool {
		for _, e := range emitsOf[b] {
			if e.kinds.covers(m.event) {
				return false
			}
		}
		return true
	}
	// Blocks whose start is reachable from the entry along emission-free
	// blocks.
	in := map[*analysis.Block]bool{cfg.Entry: true}
	stack := []*analysis.Block{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !clean(b) {
			continue
		}
		for _, s := range b.Succs {
			if !in[s] {
				in[s] = true
				stack = append(stack, s)
			}
		}
	}
	return in[mb]
}

// missingAfter reports whether some path from the marker reaches the
// exit without emitting its event kind.
func missingAfter(cfg *analysis.CFG, emitsOf map[*analysis.Block][]emission, mb *analysis.Block, m marker) bool {
	for _, e := range emitsOf[mb] {
		if e.pos > m.pos && e.kinds.covers(m.event) {
			return false
		}
	}
	clean := func(b *analysis.Block) bool {
		for _, e := range emitsOf[b] {
			if e.kinds.covers(m.event) {
				return false
			}
		}
		return true
	}
	// Blocks from whose start an emission-free path reaches the exit,
	// computed backward to a fixpoint.
	out := map[*analysis.Block]bool{cfg.Exit: true}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if out[b] || !clean(b) {
				continue
			}
			for _, s := range b.Succs {
				if out[s] {
					out[b] = true
					changed = true
					break
				}
			}
		}
	}
	for _, s := range mb.Succs {
		if out[s] {
			return true
		}
	}
	return false
}

// scanNode walks one CFG node, reporting transition markers and trace
// emissions. GoStmt subtrees are skipped: their bodies are separate
// functions and their emissions happen after the engine may have acked.
func scanNode(pkg *analysis.Package, emitters map[*types.Func]kindSet, n ast.Node, onMarker func(marker), onEmit func(emission)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if method, ok := collectorMarker(pkg.Info, n); ok {
				onMarker(marker{pos: n.Pos(), method: method, event: markerEvent[method]})
				return true
			}
			if ks, ok := emissionKinds(pkg.Info, emitters, n); ok {
				onEmit(emission{pos: n.Pos(), kinds: ks})
			}
		}
		return true
	})
}

// collectorMarker reports whether call is a transition-marker method on a
// metrics Collector (matched by receiver type name, so golden stubs work
// like the real package).
func collectorMarker(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, ok := markerEvent[sel.Sel.Name]; !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Collector" {
		return "", false
	}
	return sel.Sel.Name, true
}

// emissionKinds classifies call as a trace emission: a direct Trace
// method call, or a call to a function that transitively emits. The kind
// is narrowed from an Event composite-literal argument when present.
func emissionKinds(info *types.Info, emitters map[*types.Func]kindSet, call *ast.CallExpr) (kindSet, bool) {
	if isTraceCall(info, call) {
		if k, ok := literalKind(call); ok {
			return k, true
		}
		return kindSet{all: true}, true
	}
	callee := analysis.ResolveCallee(info, call)
	if callee == nil {
		return kindSet{}, false
	}
	ks, ok := emitters[callee]
	if !ok || ks.empty() {
		return kindSet{}, false
	}
	if k, ok := literalKind(call); ok {
		return k, true
	}
	return ks, true
}

// isTraceCall reports whether call invokes a method named Trace. The
// Tracer is an interface field, so the callee cannot be resolved
// statically; the name is the contract, as with storage.Ack.Wait in
// lockorder.
func isTraceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Trace" {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	_, ok = selection.Obj().(*types.Func)
	return ok
}

// literalKind extracts the event kind from an Event{Kind: EvX, ...}
// composite-literal argument. A Kind field bound to anything but a plain
// EvX identifier yields the unknown (all) kind; an Event literal with
// keyed fields but no Kind carries the zero kind, EvBegin.
func literalKind(call *ast.CallExpr) (kindSet, bool) {
	for _, arg := range call.Args {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		cl, ok := arg.(*ast.CompositeLit)
		if !ok || !isEventType(cl.Type) {
			continue
		}
		keyed := false
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			keyed = true
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Kind" {
				continue
			}
			if name, ok := identName(kv.Value); ok {
				return kindSet{kinds: map[string]bool{name: true}}, true
			}
			return kindSet{all: true}, true
		}
		if keyed {
			// Keyed literal without an explicit Kind: the zero value.
			return kindSet{kinds: map[string]bool{"EvBegin": true}}, true
		}
		return kindSet{all: true}, true
	}
	return kindSet{}, false
}

// isEventType matches Event and pkg.Event type expressions.
func isEventType(t ast.Expr) bool {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name == "Event"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Event"
	}
	return false
}

// identName resolves EvX / tso.EvX value expressions.
func identName(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		return e.Sel.Name, true
	}
	return "", false
}

// buildEmitters computes, for every declared function, the set of event
// kinds it may emit — directly through Trace calls or transitively
// through callees — to a fixpoint. Call-site Event literals narrow the
// contribution: e.trace(Event{Kind: EvCommit}) emits exactly EvCommit
// even though the trace helper itself can emit anything.
func buildEmitters(g *analysis.CallGraph) map[*types.Func]kindSet {
	emitters := make(map[*types.Func]kindSet)
	for fn, src := range g.Decls {
		ks := kindSet{}
		ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if isTraceCall(src.Pkg.Info, n) {
					if k, ok := literalKind(n); ok {
						ks.merge(k)
					} else {
						ks.merge(kindSet{all: true})
					}
				}
			}
			return true
		})
		if !ks.empty() {
			emitters[fn] = ks
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, sites := range g.Calls {
			for _, site := range sites {
				callee := emitters[site.Callee]
				if callee.empty() {
					continue
				}
				contrib := callee
				if k, ok := literalKind(site.Call); ok {
					contrib = k
				}
				cur := emitters[caller]
				if cur.merge(contrib) {
					emitters[caller] = cur
					changed = true
				}
			}
		}
	}
	return emitters
}
