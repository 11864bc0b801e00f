// Package epsiloncheck enforces the ESR accounting discipline: the state
// that meters imported/exported inconsistency — the heart of the
// Kamath/Ramamritham control loop — may only move through the designated
// accounting helpers. Any other assignment to those fields bypasses the
// bottom-up bounds check of §5.3.1 and silently breaks the epsilon
// guarantee, so it is reported as an error.
//
// The protected state and its writers:
//
//	core.Accumulator.used / .limits      — NewAccumulator, Init, Admit, Reset
//	storage.Object.oil / .oel            — NewObject, SetLimits
//	storage.Object.maxQueryReadTS / .maxUpdateReadTS — NewObject, RecordRead
//
// Matching is by declaring package name, type name, and field name, so
// the golden testdata packages can model the real ones without importing
// them. Because every protected field is unexported, a violation can only
// originate inside the declaring package; the analyzer therefore gives
// complete coverage even under per-package (go vet -vettool) execution.
//
// Two flow rules sharpen the write rule:
//
//   - In the declaring package, raw arithmetic on a protected field (a
//     read feeding +, -, *, / or %) is confined to the allowed writers
//     plus a per-rule arithmetic allowlist (e.g. Accumulator.Remaining,
//     which computes the root headroom). Any other in-package arithmetic
//     is a bounds computation happening outside the accounting helpers.
//
//   - Outside internal/core, inconsistency values obtained from the
//     accounting accessors (Accumulator.Total/Used/Limit/Remaining,
//     Object.OIL/OEL/ExportDistance) are tracked through local variables
//     with a forward taint dataflow over the CFG (see taint.go). Raw
//     arithmetic on a tainted value is reported; comparisons and passing
//     the value to another function — the blessed flows — are not.
//     Because core.Distance is an alias of int64, provenance, not type
//     identity, is what the analysis tracks.
package epsiloncheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/epsilondb/epsilondb/internal/analysis"
)

// Analyzer is the epsiloncheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "epsiloncheck",
	Doc:  "inconsistency counters may only be written by the accounting helpers",
	Run:  run,
}

// rule protects the fields of one type.
type rule struct {
	pkg     string   // declaring package name
	typ     string   // declaring named type
	fields  []string // protected fields
	writers []string // functions/methods allowed to write them
	arith   []string // additional functions allowed raw arithmetic on them
}

var rules = []rule{
	{"core", "Accumulator", []string{"used", "limits"}, []string{"NewAccumulator", "Init", "Admit", "Reset"}, []string{"Remaining"}},
	{"storage", "Object", []string{"oil", "oel"}, []string{"NewObject", "SetLimits"}, nil},
	{"storage", "Object", []string{"maxQueryReadTS", "maxUpdateReadTS"}, []string{"NewObject", "RecordRead"}, nil},
}

// arithOps are the operators that count as raw arithmetic. Comparisons
// are deliberately absent: checking a bound is reading it, not computing
// a new one.
var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
}

// findRule returns the rule protecting (pkg, typ, field), if any.
func findRule(pkg, typ, field string) *rule {
	for i := range rules {
		r := &rules[i]
		if r.pkg != pkg || r.typ != typ {
			continue
		}
		for _, f := range r.fields {
			if f == field {
				return r
			}
		}
	}
	return nil
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	taint := pkg.Types.Name() != "core"
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn)
				if taint {
					checkTaint(pass, fn.Body)
				}
			}
		}
	}
	return nil
}

// checkFunc walks one function body for writes to protected fields.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, fn, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, fn, n.X)
		case *ast.UnaryExpr:
			// &x.field escapes the field for arbitrary later writes.
			if n.Op == token.AND {
				checkWrite(pass, fn, n.X)
			}
		case *ast.BinaryExpr:
			if arithOps[n.Op] {
				checkArith(pass, fn, n.X)
				checkArith(pass, fn, n.Y)
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, fn, n)
		}
		return true
	})
}

// checkWrite reports lhs if it denotes a protected field and fn is not an
// allowed writer.
func checkWrite(pass *analysis.Pass, fn *ast.FuncDecl, lhs ast.Expr) {
	sel := baseSelector(lhs)
	if sel == nil {
		return
	}
	selection := pass.Pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	typ := namedName(selection.Recv())
	if typ == "" || field.Pkg() == nil {
		return
	}
	r := findRule(field.Pkg().Name(), typ, field.Name())
	if r == nil {
		return
	}
	if allowed(r, fn) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"inconsistency accounting field %s.%s.%s written outside its accounting helpers (allowed: %s)",
		r.pkg, r.typ, field.Name(), strings.Join(r.writers, ", "))
}

// checkArith reports operand if it denotes a protected field read by an
// arithmetic operator and fn may neither write the field nor compute
// with it (the rule's arith allowlist).
func checkArith(pass *analysis.Pass, fn *ast.FuncDecl, operand ast.Expr) {
	sel := baseSelector(operand)
	if sel == nil {
		return
	}
	selection := pass.Pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	typ := namedName(selection.Recv())
	if typ == "" || field.Pkg() == nil {
		return
	}
	r := findRule(field.Pkg().Name(), typ, field.Name())
	if r == nil || allowed(r, fn) || allowedArith(r, fn) {
		return
	}
	pass.Reportf(operand.Pos(),
		"raw arithmetic on inconsistency accounting field %s.%s.%s outside its accounting helpers (allowed: %s)",
		r.pkg, r.typ, field.Name(), strings.Join(append(append([]string{}, r.writers...), r.arith...), ", "))
}

// checkCompositeLit reports protected fields initialized by keyed
// composite literals outside the allowed writers.
func checkCompositeLit(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[ast.Expr(lit)]
	if !ok {
		return
	}
	typ := namedName(tv.Type)
	if typ == "" {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		r := findRule(pass.Pkg.Types.Name(), typ, key.Name)
		if r == nil || allowed(r, fn) {
			continue
		}
		pass.Reportf(kv.Pos(),
			"inconsistency accounting field %s.%s.%s written outside its accounting helpers (allowed: %s)",
			r.pkg, r.typ, key.Name, strings.Join(r.writers, ", "))
	}
}

// allowed reports whether fn is one of the rule's permitted writers.
func allowed(r *rule, fn *ast.FuncDecl) bool {
	for _, w := range r.writers {
		if fn.Name.Name == w {
			return true
		}
	}
	return false
}

// allowedArith reports whether fn is on the rule's arithmetic allowlist.
func allowedArith(r *rule, fn *ast.FuncDecl) bool {
	for _, w := range r.arith {
		if fn.Name.Name == w {
			return true
		}
	}
	return false
}

// baseSelector unwraps index/star/paren wrappers down to the selector
// expression naming a field, e.g. a.used[g] -> a.used.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedName returns the name of the named struct type behind t (through
// pointers), or "".
func namedName(t types.Type) string {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x.Obj().Name()
		default:
			return ""
		}
	}
}
