// Package errprop checks durability error propagation. A transaction
// that commits in memory but whose log write fails is the one state the
// paper's recovery argument cannot repair silently, so the error results
// of the durability surface — methods of the storage.Durability and
// storage.Ack interfaces, methods of *wal.Log, methods of the wal.FS and
// wal.File interfaces except Close, and the wal package's functions —
// must reach a handler: returned, wrapped (engines match
// them as *DurabilityError), or branched on. Discarding one is reported:
//
//   - a bare call statement (`d.LogCreate(...)`),
//   - assignment to the blank identifier (`_ = log.Sync()`),
//   - assignment to a variable that is never subsequently read,
//   - `go` / `defer` of such a call (the result is unrecoverable there).
//
// A deliberate discard must say why:
//
//	//lint:ignore errprop <reason>
//
// either trailing on the call's line or on the line above it. The
// suppression is surfaced by `esr-lint -json` so waived call sites stay
// auditable.
package errprop

import (
	"go/ast"
	"go/types"

	"github.com/epsilondb/epsilondb/internal/analysis"
)

// Analyzer is the errprop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errprop",
	Doc:  "error results of the durability surface (storage.Durability, storage.Ack, wal) must be handled or explicitly suppressed",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	reads := countReads(pkg)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, fn := matchCall(pkg, n.X); fn != nil && len(errIndices(fn)) > 0 {
					pass.Reportf(call.Pos(), "error result of %s discarded: handle it, return it, or annotate //lint:ignore errprop", fnLabel(fn))
				}
			case *ast.GoStmt:
				if call, fn := matchCall(pkg, n.Call); fn != nil && len(errIndices(fn)) > 0 {
					pass.Reportf(call.Pos(), "error result of %s lost in go statement: call it synchronously or handle the error in the goroutine", fnLabel(fn))
				}
			case *ast.DeferStmt:
				if call, fn := matchCall(pkg, n.Call); fn != nil && len(errIndices(fn)) > 0 {
					pass.Reportf(call.Pos(), "error result of %s lost in defer: wrap it in a closure that handles the error", fnLabel(fn))
				}
			case *ast.AssignStmt:
				checkAssign(pass, pkg, reads, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags error results of a matched call assigned to blank or
// to variables never read afterwards.
func checkAssign(pass *analysis.Pass, pkg *analysis.Package, reads map[types.Object]int, n *ast.AssignStmt) {
	if len(n.Rhs) != 1 {
		return
	}
	call, fn := matchCall(pkg, n.Rhs[0])
	if fn == nil {
		return
	}
	for _, i := range errIndices(fn) {
		if i >= len(n.Lhs) {
			continue
		}
		id, ok := n.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "error result of %s discarded: handle it, return it, or annotate //lint:ignore errprop", fnLabel(fn))
			continue
		}
		var obj types.Object
		if obj = pkg.Info.Defs[id]; obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil && reads[obj] == 0 {
			pass.Reportf(call.Pos(), "error result of %s assigned to %s but never read", fnLabel(fn), id.Name)
		}
	}
}

// matchCall returns the called function when e is a call into the
// durability surface: methods of the storage.Durability or storage.Ack
// interfaces, methods of wal.Log, methods of wal.FS or wal.File other
// than Close, or wal package functions. A Close that runs after a failed
// write has no error worth more than the one already returned.
func matchCall(pkg *analysis.Package, e ast.Expr) (*ast.CallExpr, *types.Func) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return call, nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok {
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return call, nil
		}
		if named := namedOf(s.Recv()); named != nil {
			obj := named.Obj()
			if obj.Pkg() == nil {
				return call, nil
			}
			switch {
			case obj.Pkg().Name() == "storage" && (obj.Name() == "Durability" || obj.Name() == "Ack"):
				return call, fn
			case obj.Pkg().Name() == "wal" && obj.Name() == "Log":
				return call, fn
			case obj.Pkg().Name() == "wal" && (obj.Name() == "FS" || obj.Name() == "File") && fn.Name() != "Close":
				return call, fn
			}
		}
		return call, nil
	}
	// Package-qualified: wal.Open, wal.Replay, ...
	if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
		if fn.Pkg() != nil && fn.Pkg().Name() == "wal" && fn.Type().(*types.Signature).Recv() == nil {
			return call, fn
		}
	}
	return call, nil
}

// errIndices returns the result positions of type error.
func errIndices(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			out = append(out, i)
		}
	}
	return out
}

func fnLabel(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// countReads counts genuine reads per object: every use that is not the
// target of an assignment. Writing a variable again does not consume the
// error previously stored in it.
func countReads(pkg *analysis.Package) map[types.Object]int {
	assignTargets := map[*ast.Ident]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range a.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						assignTargets[id] = true
					}
				}
			}
			return true
		})
	}
	reads := map[types.Object]int{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || assignTargets[id] {
				return true
			}
			if obj := pkg.Info.Uses[id]; obj != nil {
				reads[obj]++
			}
			return true
		})
	}
	return reads
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
