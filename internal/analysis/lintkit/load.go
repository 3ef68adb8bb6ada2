package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints. Analysis proceeds
	// best-effort on a partially checked package; the runner surfaces
	// these so a broken tree fails lint loudly instead of silently
	// skipping checks.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Load resolves the given `go list` patterns (e.g. "./...") and returns
// each matched package parsed and type-checked from source.
//
// Only non-test Go files are analysed: the lint gate guards production
// code paths, while _test.go files are exercised by the test suites
// themselves (and routinely use time, rand and float equality in ways
// that are fine inside a test).
//
// Every non-standard package in the patterns' dependency closure is
// type-checked once, and importers see that same *types.Package, so an
// object has one identity across the whole load (a method found in one
// package is the method another package calls). The standard library is
// type-checked from source via go/importer, so Load needs no compiled
// export data and no network. Cgo is disabled for the importer: the
// repository is pure Go and source-importing net's cgo variant would
// require a C toolchain.
func Load(patterns ...string) ([]*Package, error) {
	listed, err := goList(append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		std:    NewImporter(fset),
		listed: make(map[string]listedPackage, len(listed)),
		done:   make(map[string]*Package, len(listed)),
	}
	var roots []string
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		l.listed[lp.ImportPath] = lp
		if !lp.DepOnly {
			roots = append(roots, lp.ImportPath)
		}
	}
	sort.Strings(roots)
	pkgs := make([]*Package, 0, len(roots))
	for _, path := range roots {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader type-checks the module's packages on demand, each once, and is
// the importer they are checked with: a module import returns that one
// package, a standard-library import goes to the source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]listedPackage
	done   map[string]*Package
}

func (l *loader) check(path string) (*Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	lp := l.listed[path]
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	p, err := CheckFiles(l.fset, l, path, files)
	if err != nil {
		return nil, fmt.Errorf("lintkit: %s: %w", path, err)
	}
	p.Dir = lp.Dir
	l.done[path] = p
	return p, nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.listed[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// CheckFiles parses and type-checks one package from an explicit file
// list under the given import path. The fixture runner uses it directly;
// Load uses it per listed package.
func CheckFiles(fset *token.FileSet, imp types.Importer, importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(importPath, fset, files, info) // best-effort; errors collected above
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}

// NewImporter returns a fresh source importer sharing fset. Exposed for
// the fixture runner.
func NewImporter(fset *token.FileSet) types.Importer {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lintkit: go list %v: %v\n%s", patterns, err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lintkit: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
