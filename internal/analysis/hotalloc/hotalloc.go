// Package hotalloc implements the hotalloc analyzer: functions marked
// //lint:hotpath must be statically allocation-free.
//
// PR 8 rebuilt inference on flat kernels and a span-protocol batcher
// whose contract is 0 marginal allocations per scored pair, enforced
// dynamically by testing.AllocsPerRun gates. Dynamic gates only fire
// when the right benchmark-shaped test runs; a single innocent
// fmt.Sprintf or escaping closure regresses the contract the moment it
// merges. hotalloc is the static half of that enforcement: every
// function carrying a //lint:hotpath annotation (plus a seeded list of
// the kernels the repo's throughput claims rest on) is scanned for
// constructs that allocate — make/new, map and slice literals, escaping
// composite literals, appends outside the append(buf[:0], ...) arena
// pattern, closures, fmt calls, strings.Builder, and interface boxing —
// and its same-package callees are checked one level deep so an alloc
// can't hide one call away. panic(...) arguments are exempt: a
// panicking hot path has already left the fast path.
//
// The annotation is also a contract with the dynamic gates: the
// cross-check in this package (part of the analyzer's run) requires
// every //lint:hotpath function to be named inside a
// testing.AllocsPerRun closure in its package's tests, so the static
// and dynamic enforcement can never drift apart.
package hotalloc

import (
	"go/ast"
	"strings"

	"leapme/internal/analysis/lintkit"
)

// Directive marks a function as hot-path; it must appear in the
// function's doc comment.
const Directive = "//lint:hotpath"

// SeededFunc names one function that must carry the //lint:hotpath
// annotation whether or not anyone remembered to write it: the scoring
// kernels the repository's performance claims are measured on.
type SeededFunc struct {
	Pkg  string // import path
	Recv string // receiver base type name, "" for plain functions
	Name string
}

// Seeded is the list of functions that must be annotated. A var so the
// fixture tests can retarget it; the production list covers the flat
// inference and training kernels, the pair vector and its name
// distances, the Scorer score paths, the batcher span loop and the
// GloVe trainer's per-pair step.
var Seeded = []SeededFunc{
	{Pkg: "leapme/internal/nn", Recv: "Kernel", Name: "ForwardBatch"},
	{Pkg: "leapme/internal/nn", Recv: "TrainKernel", Name: "runBatch"},
	{Pkg: "leapme/internal/nn", Recv: "TrainKernel", Name: "chunkGrads"},
	{Pkg: "leapme/internal/nn", Recv: "TrainKernel", Name: "accumLayerGrads"},
	{Pkg: "leapme/internal/nn", Recv: "TrainKernel", Name: "stepRange"},
	{Pkg: "leapme/internal/nn", Recv: "TrainKernel", Name: "beginStep"},
	{Pkg: "leapme/internal/text", Name: "NameDistances"},
	{Pkg: "leapme/internal/features", Recv: "Extractor", Name: "accumulateInstances"},
	{Pkg: "leapme/internal/features", Recv: "Pairer", Name: "PairVectorScratch"},
	{Pkg: "leapme/internal/core", Recv: "Scorer", Name: "Score"},
	{Pkg: "leapme/internal/core", Recv: "Scorer", Name: "ScoreBatch"},
	{Pkg: "leapme/internal/serve", Recv: "batcher", Name: "runBatch"},
	{Pkg: "leapme/internal/embedding", Recv: "gloveSlabs", Name: "step"},
}

// Analyzer is the hotalloc analyzer.
var Analyzer = &lintkit.Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //lint:hotpath (and the seeded kernel list) must be statically allocation-free: " +
		"no make/new/map/slice literals, no growing append, no closures, no fmt or strings.Builder, no interface boxing; " +
		"same-package callees are checked one level deep",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	// Index this package's function declarations by (recv, name) so the
	// seeded check and the callee check can find bodies.
	decls := map[[2]string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[[2]string{recvName(fd), fd.Name.Name}] = fd
			}
		}
	}

	var hot []*ast.FuncDecl
	for _, fd := range decls {
		if IsHotpath(fd) {
			hot = append(hot, fd)
		}
	}

	// Seeded functions must exist and be annotated: deleting the comment
	// (or renaming the function) must not silently drop enforcement.
	pkgPath := ""
	if pass.Pkg != nil {
		pkgPath = pass.Pkg.Path()
	}
	for _, s := range Seeded {
		if s.Pkg != pkgPath {
			continue
		}
		fd, ok := decls[[2]string{s.Recv, s.Name}]
		if !ok {
			pos := pass.Files[0].Name.Pos()
			pass.Reportf(pos, "seeded hot-path function %s not found in %s: renamed or removed? update hotalloc.Seeded to match",
				s.display(), pkgPath)
			continue
		}
		if !IsHotpath(fd) {
			pass.Reportf(fd.Pos(), "%s is on the seeded hot-path list and must carry a %s annotation", s.display(), Directive)
		}
	}

	for _, fd := range hot {
		checkHot(pass, fd, decls)
	}
	crossCheck(pass, hot)
	return nil, nil
}

func (s SeededFunc) display() string {
	if s.Recv != "" {
		return s.Recv + "." + s.Name
	}
	return s.Name
}

// checkHot reports every alloc site in fd's body, then walks its calls
// and charges same-package callees' alloc sites to the call site —
// one level deep, which is as far as the repo's kernel helpers nest.
func checkHot(pass *lintkit.Pass, fd *ast.FuncDecl, decls map[[2]string]*ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	for _, site := range lintkit.AllocSites(pass, fd.Body) {
		pass.Reportf(site.Pos, "hot path %s allocates: %s", fd.Name.Name, site.What)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := localCallee(pass, call, decls)
		if callee == nil || callee == fd || callee.Body == nil {
			return true
		}
		if IsHotpath(callee) {
			return true // checked in its own right
		}
		if sites := lintkit.AllocSites(pass, callee.Body); len(sites) > 0 {
			pass.Reportf(call.Pos(), "hot path %s calls %s, which allocates: %s",
				fd.Name.Name, callee.Name.Name, sites[0].What)
		}
		return true
	})
}

// localCallee resolves call to a FuncDecl in the same package, for both
// plain calls (helper(x)) and method calls on any receiver whose method
// is declared here (s.ensureBatch(n)).
func localCallee(pass *lintkit.Pass, call *ast.CallExpr, decls map[[2]string]*ast.FuncDecl) *ast.FuncDecl {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Plain call: the Uses object must be package-level here (not a
		// builtin, not a local func value).
		obj := pass.TypesInfo.Uses[fun]
		if obj == nil || obj.Pkg() == nil || pass.Pkg == nil || obj.Pkg().Path() != pass.Pkg.Path() {
			return nil
		}
		return decls[[2]string{"", fun.Name}]
	case *ast.SelectorExpr:
		sel := pass.TypesInfo.Selections[fun]
		if sel == nil {
			return nil // package-qualified or field
		}
		obj := sel.Obj()
		if obj == nil || obj.Pkg() == nil || pass.Pkg == nil || obj.Pkg().Path() != pass.Pkg.Path() {
			return nil
		}
		for key, fd := range decls {
			if key[1] == fun.Sel.Name && key[0] != "" && fd.Name.Name == obj.Name() {
				// Match on receiver type name too, so same-named methods
				// of different types (Scorer.Score, Matcher.Score)
				// resolve distinctly.
				if recvTypeName(pass, fun) == key[0] {
					return fd
				}
			}
		}
		return nil
	}
	return nil
}

// recvTypeName returns the receiver base type name of a method selector.
func recvTypeName(pass *lintkit.Pass, sel *ast.SelectorExpr) string {
	s := pass.TypesInfo.Selections[sel]
	if s == nil {
		return ""
	}
	t := s.Recv()
	return baseTypeName(t.String())
}

func baseTypeName(s string) string {
	s = strings.TrimPrefix(s, "*")
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "["); i >= 0 { // generic instantiation
		s = s[:i]
	}
	return s
}

// IsHotpath reports whether fd's doc comment carries the //lint:hotpath
// directive.
func IsHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") || strings.HasPrefix(c.Text, Directive+"\t") {
			return true
		}
	}
	return false
}

// recvName returns the base type name of fd's receiver, "" for plain
// functions.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
