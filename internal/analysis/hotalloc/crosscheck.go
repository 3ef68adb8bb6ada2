package hotalloc

// The gate cross-check binds static and dynamic enforcement together:
// every //lint:hotpath function must be invoked inside a
// testing.AllocsPerRun closure somewhere in its package's _test.go
// files. Without this, deleting a benchmark-shaped test silently drops
// the dynamic half of the zero-alloc contract while the annotation
// keeps claiming it holds; with it, CI fails the moment either side
// drifts.
//
// The test files are parsed (not type-checked — lintkit.Load
// deliberately loads only production files), so the match is name-based
// per package directory: the number of AllocsPerRun closures calling a
// name must cover the number of hotpath functions bearing that name.
// The check runs inside the analyzer's Run, so //lint:allow hotalloc and
// -audit-allows cover it like every other hotalloc finding.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"leapme/internal/analysis/lintkit"
)

// crossCheck reports every annotated function in hot that no
// testing.AllocsPerRun closure in the package's tests names. A fixture
// package built from an explicit file list has no Dir and is skipped.
func crossCheck(pass *lintkit.Pass, hot []*ast.FuncDecl) {
	if pass.Dir == "" || len(hot) == 0 {
		return
	}
	byName := map[string]int{}
	for _, fd := range hot {
		byName[fd.Name.Name]++
	}
	gates, err := gateCounts(pass.Dir)
	if err != nil {
		pass.Reportf(pass.Files[0].Name.Pos(), "cannot scan %s for AllocsPerRun gates: %v", pass.Dir, err)
		return
	}
	for _, fd := range hot {
		name := fd.Name.Name
		if gates[name] >= byName[name] {
			continue
		}
		msg := fmt.Sprintf("//lint:hotpath function %s has no testing.AllocsPerRun gate in %s's tests",
			name, filepath.Base(pass.Dir))
		if gates[name] > 0 {
			msg = fmt.Sprintf("%d //lint:hotpath functions named %s in %s but only %d AllocsPerRun gate(s) call that name",
				byName[name], name, filepath.Base(pass.Dir), gates[name])
		}
		pass.Reportf(fd.Pos(), "%s — the static annotation needs a dynamic gate backing it (or drop the annotation)", msg)
	}
}

// gateCounts parses dir's _test.go files and counts, per callee name,
// how many testing.AllocsPerRun closures invoke that name.
func gateCounts(dir string) (map[string]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "AllocsPerRun" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "testing" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				return true
			}
			for name := range calledNames(lit.Body) {
				counts[name]++
			}
			return true
		})
	}
	return counts, nil
}

// calledNames collects the terminal names of every call inside body:
// f(x) yields f, recv.Method(x) yields Method. Calls nested in further
// closures count too — the gate measures whatever the closure runs.
func calledNames(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			names[fun.Name] = true
		case *ast.SelectorExpr:
			names[fun.Sel.Name] = true
		}
		return true
	})
	return names
}
