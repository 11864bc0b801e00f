// Package analysis is a self-contained re-implementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so
// the repo's custom vet suite (cmd/esr-lint) carries no external
// dependencies. It provides:
//
//   - Analyzer / Pass / Diagnostic — the familiar vocabulary for writing
//     static checks over typed ASTs;
//   - a package loader (Load) that shells out to `go list -export` and
//     typechecks source against compiler export data, exactly the way
//     `go vet` feeds its unitchecker;
//   - a driver (Program.Run / RunDetailed) that executes analyzers per
//     package or over the whole program, for cross-package invariants
//     such as wire-protocol exhaustiveness, and applies the
//     //lint:ignore suppression grammar (ignore.go);
//   - a flow layer for flow-sensitive checks: an intraprocedural CFG
//     (cfg.go), a generic forward dataflow fixpoint (dataflow.go), and a
//     program-level call graph with property propagation (callgraph.go).
//
// The concrete analyzers live in the subpackages epsiloncheck,
// wireexhaustive, lockorder, goleak, errprop, and tracecomplete;
// DESIGN.md ("Static invariants") documents the invariant each one
// enforces and how to add a new one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// ProgramLevel selects the driver mode: false runs Run once per
	// loaded package (Pass.Pkg set); true runs it once for the whole
	// program (Pass.Pkg nil), for invariants spanning packages.
	ProgramLevel bool
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer execution's inputs.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Program is the full set of loaded packages.
	Program *Program
	// Pkg is the package under analysis; nil for program-level analyzers.
	Pkg *Package
	// Fset maps positions for every file in the program.
	Fset *token.FileSet

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way `go vet` does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one typechecked package.
type Package struct {
	// ImportPath is the canonical import path.
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed non-test Go files.
	Files []*ast.File
	// Types is the typechecked package object.
	Types *types.Package
	// Info holds the typechecker's results for Files.
	Info *types.Info
}

// Program is a set of typechecked packages sharing one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Package returns the loaded package with the given package name
// (types.Package.Name), or nil. Used by program-level analyzers to find
// their subject packages by role (e.g. "wire", "server").
func (prog *Program) Package(name string) *Package {
	for _, pkg := range prog.Packages {
		if pkg.Types.Name() == name {
			return pkg
		}
	}
	return nil
}

// Run executes the analyzers and returns their unsuppressed findings
// sorted by position. Per-package analyzers visit every loaded package;
// program-level analyzers run once. Diagnostics covered by a
// //lint:ignore directive (ignore.go) are dropped; malformed directives
// are reported.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := prog.RunDetailed(analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// Result is the detailed outcome of one driver run.
type Result struct {
	// Diagnostics are the reportable (unsuppressed) findings, sorted.
	Diagnostics []Diagnostic
	// Suppressed are the findings waived by //lint:ignore directives,
	// sorted; drivers surface them for audit (esr-lint -json).
	Suppressed []Diagnostic
}

// RunDetailed is Run with the suppressed findings kept for inspection.
func (prog *Program) RunDetailed(analyzers []*Analyzer) (*Result, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.ProgramLevel {
			pass := &Pass{Analyzer: a, Program: prog, Fset: prog.Fset, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Program: prog, Pkg: pkg, Fset: prog.Fset, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	idx, malformed := buildIgnoreIndex(prog)
	kept, suppressed := idx.suppress(diags)
	kept = append(kept, malformed...)
	sortDiags(kept)
	sortDiags(suppressed)
	return &Result{Diagnostics: kept, Suppressed: suppressed}, nil
}

// sortDiags orders diagnostics by position then message.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}

// NewInfo returns a types.Info with every result map allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
