// Package lintkit is the minimal analysis framework behind leapme-lint.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a Pass; a Pass exposes the
// package's syntax, type information and a Report sink — but is built
// entirely on the standard library (go/ast, go/types and the "source"
// importer) so the lint gate works in hermetic build environments with
// no module downloads. Porting an analyzer between the two frameworks
// is a mechanical rename.
//
// See the parent package leapme/internal/analysis for the catalogue of
// shipped analyzers and the //lint:allow suppression syntax.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and why
	// it matters.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	// The returned value is ignored by the runner (reserved for future
	// fact passing); return nil.
	Run func(*Pass) (any, error)
	// Program, if non-nil, runs once after Run has seen every package,
	// over all of the run's passes: a whole-program check reports each
	// finding through the pass of the package it lies in, so
	// //lint:allow and -audit-allows treat it like any other.
	Program func([]*Pass)
}

func (a *Analyzer) String() string { return a.Name }

// Diagnostic is one reported problem at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package's source directory, "" for a fixture package
	// built from an explicit file list.
	Dir string

	diags []Diagnostic
}

// runPasses applies a to every package, then a.Program to all of the
// passes, and returns the passes holding their raw diagnostics.
func runPasses(a *Analyzer, pkgs []*Package) ([]*Pass, error) {
	passes := make([]*Pass, len(pkgs))
	for i, p := range pkgs {
		passes[i] = &Pass{Analyzer: a, Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.Info, Dir: p.Dir}
		if _, err := a.Run(passes[i]); err != nil {
			return nil, fmt.Errorf("lintkit: analyzer %s on %s: %w", a.Name, p.ImportPath, err)
		}
	}
	if a.Program != nil {
		a.Program(passes)
	}
	return passes, nil
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the package in source order, calling fn
// for each node; fn returning false prunes the subtree (ast.Inspect
// semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// InspectStack walks every file keeping the ancestor stack: stack[0] is
// the *ast.File and stack[len(stack)-1] is n itself. fn returning false
// prunes the subtree.
func (p *Pass) InspectStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			return fn(n, stack)
		})
	}
}

// ImportedPkg returns the *types.PkgName object an identifier resolves
// to, or nil when the identifier is not a package name. Analyzers use it
// to recognise qualified references like rand.Int or time.Now without
// being fooled by import renames or local shadowing.
func (p *Pass) ImportedPkg(id *ast.Ident) *types.PkgName {
	if id == nil {
		return nil
	}
	if pn, ok := p.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}

// QualifiedCallee resolves a selector expression X.Sel where X names an
// imported package, returning the package path and selected name.
// ok is false for method calls, field accesses and locals.
func (p *Pass) QualifiedCallee(e ast.Expr) (path, name string, ok bool) {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn := p.ImportedPkg(id)
	if pn == nil {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsFloat reports whether t's core type is a floating-point scalar.
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
