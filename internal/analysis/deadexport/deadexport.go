// Package deadexport reports code that no program reaches. The gc
// compiler accepts an unused function, type, var or const, so dead code
// builds, passes vet and keeps its tests green; this check makes "least
// code" a gate instead of a hand search. Run checks unexported
// identifiers within their package, on any set of packages; Program
// checks the exports of internal packages across the module, when the
// load holds the root package and so (as `leapme-lint ./...` from the
// root loads it) the whole module. The rules are catalogued in
// leapme/internal/analysis.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"leapme/internal/analysis/lintkit"
)

// Module is the import path of the module under check: its root
// package's exported API is the public surface, and exports under
// Module/internal/ are checked. Var, not const, so the fixture tests can
// retarget it.
var Module = "leapme"

// Analyzer is the deadexport check.
var Analyzer = &lintkit.Analyzer{
	Name: "deadexport",
	Doc: "report identifiers no program reaches: unexported ones unused in their package, " +
		"and (on a run that loads the root package) exports of internal/ packages no non-test file uses",
	Run:     run,
	Program: program,
}

func run(pass *lintkit.Pass) (any, error) {
	used := map[types.Object]bool{}
	markRefs(pass, used)
	markImplemented([]*lintkit.Pass{pass}, used)
	for _, obj := range declared(pass) {
		if !obj.Exported() && !used[obj] {
			pass.Reportf(obj.Pos(), "%s is used by no non-test file of package %s", describe(obj), pass.Pkg.Name())
		}
	}
	return nil, nil
}

func program(passes []*lintkit.Pass) {
	used := map[types.Object]bool{}
	imported := map[string]bool{}
	root := false
	for _, pass := range passes {
		markRefs(pass, used)
		for _, imp := range pass.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		if pass.Pkg.Path() == Module {
			root = true
			markAPI(pass.Pkg, used)
		}
	}
	if !root {
		return
	}
	markImplemented(passes, used)
	for _, pass := range passes {
		path := pass.Pkg.Path()
		if !strings.HasPrefix(path, Module+"/internal/") {
			continue
		}
		if !imported[path] {
			pass.Reportf(pass.Files[0].Package, "package %s is imported by no non-test file of the module", pass.Pkg.Name())
			continue
		}
		for _, obj := range declared(pass) {
			if obj.Exported() && !used[obj] {
				pass.Reportf(obj.Pos(), "exported %s is used by no non-test file of the module", describe(obj))
			}
		}
	}
}

// declared lists the package-level identifiers of the pass's package and
// the methods of its named types, less main in package main (init and
// blank names are in no scope).
func declared(pass *lintkit.Pass) []types.Object {
	var out []types.Object
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "main" && pass.Pkg.Name() == "main" {
			continue
		}
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				out = append(out, n.Method(i))
			}
		}
	}
	return out
}

// markRefs marks every object an identifier of the pass's files refers
// to, except from inside the object's own declaration: a function's
// body, a type's spec and its methods, a var or const's spec.
func markRefs(pass *lintkit.Pass, used map[types.Object]bool) {
	info := pass.TypesInfo
	walk := func(n ast.Node, own ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && !contains(own, obj) {
					used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name]
				walk(d, fn, recvType(fn))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						walk(s, info.Defs[s.Name])
					case *ast.ValueSpec:
						var own []types.Object
						for _, id := range s.Names {
							own = append(own, info.Defs[id])
						}
						walk(s, own...)
					}
				}
			}
		}
	}
}

func contains(objs []types.Object, obj types.Object) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// recvType is the type name a method is declared on, nil for a func.
func recvType(obj types.Object) types.Object {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// markAPI marks every exported method and field of each module type
// reachable from root's exported API: a program outside the module can
// reach them through the root package's aliases and signatures.
func markAPI(root *types.Package, used map[types.Object]bool) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if pkg := t.Obj().Pkg(); pkg == nil || pkg.Path() != Module && !strings.HasPrefix(pkg.Path(), Module+"/") {
				return
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					used[m] = true
					walk(m.Type())
				}
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					used[f] = true
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}
}

// markImplemented marks every method of a package-level type of the
// passes that implements a method of an interface the program can see:
// error, an interface type of any expression in the passes, or one
// declared at the top of a package they import. A method found through
// embedding marks the embedded type's method.
func markImplemented(passes []*lintkit.Pass, used map[types.Object]bool) {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pass := range passes {
		for _, tv := range pass.TypesInfo.Types {
			add(tv.Type)
		}
		visit(pass.Pkg)
	}

	for _, pass := range passes {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for _, v := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(v)
				for i := 0; i < ms.Len(); i++ {
					for _, it := range byMethod[ms.At(i).Obj().Name()] {
						if !types.Implements(v, it) {
							continue
						}
						for j := 0; j < it.NumMethods(); j++ {
							m := it.Method(j)
							used[ms.Lookup(m.Pkg(), m.Name()).Obj()] = true
						}
					}
				}
			}
		}
	}
}

// describe names obj for a finding: "func F", "method T.M", "type T".
func describe(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		if recv := recvType(obj); recv != nil {
			return "method " + recv.Name() + "." + obj.Name()
		}
		return "func " + obj.Name()
	case *types.TypeName:
		return "type " + obj.Name()
	case *types.Const:
		return "const " + obj.Name()
	}
	return "var " + obj.Name()
}
