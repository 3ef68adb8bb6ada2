// Package determinism forbids the three classic sources of run-to-run
// drift inside the packages whose outputs must be bit-identical across
// repetitions and worker counts: wall-clock reads, the global math/rand
// source, and order-sensitive accumulation over map iteration.
//
// The parallel pipeline's reproducibility guarantee (workers=1 and
// workers=N produce byte-for-byte identical models and scores, see
// `make test-determinism`) holds only while every stochastic choice
// flows from an explicitly seeded *rand.Rand (mathx.NewRand /
// parallel.SeedStream) and every reduction runs in an input-derived
// order. This analyzer turns those review-time rules into compile-time
// errors.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"leapme/internal/analysis/lintkit"
)

// Packages lists the import paths whose results stand behind a golden
// file or CRC, a paper table or the -workers reproducibility claim. The
// analyzer is silent everywhere else. Var, not const, so the fixture
// tests can retarget it.
var Packages = []string{
	"leapme/internal/nn",
	"leapme/internal/features",
	"leapme/internal/eval",
	"leapme/internal/core",
	"leapme/internal/parallel",
	// The fault-injection layer promises seeded, replayable schedules —
	// same rules, same analyzer.
	"leapme/internal/chaos",
	// The ANN retrieval layer promises bit-identical indexes and
	// candidate sets for any worker count — same rules again.
	"leapme/internal/index",
	"leapme/internal/blocking",
	// The GloVe store's bytes are a golden contract that every feature,
	// model and table rests on — same rules.
	"leapme/internal/embedding",
	// The paper's tables: Table II's baselines (Nezhadi's AdaBoost in
	// ml) and A4's clusterings.
	"leapme/internal/baselines",
	"leapme/internal/ml",
	"leapme/internal/graph",
	// The generated datasets, the ontology and corpus they are drawn
	// from, and the text and math kernels every feature goes through.
	"leapme/internal/dataset",
	"leapme/internal/domain",
	"leapme/internal/text",
	"leapme/internal/mathx",
}

// clockFuncs are the time package functions that read the wall clock or
// schedule against it. time.Sleep stays legal: it delays work but never
// changes a computed value.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// randConstructors are the package-level math/rand (and rand/v2)
// functions that build explicitly seeded generators — the only
// package-level names deterministic code may touch. Everything else at
// package level (rand.Int, rand.Float64, rand.Shuffle, …) draws from
// the shared global source, whose sequence depends on every other
// goroutine that ever touched it.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 explicit-seed generators.
	"NewPCG": true, "NewChaCha8": true,
}

// Analyzer is the determinism check.
var Analyzer = &lintkit.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand and map-order accumulation " +
		"inside the deterministic packages (nn, features, eval, core, parallel, chaos, index, blocking, embedding, " +
		"baselines, ml, graph, dataset, domain, text, mathx)",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkSelector(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
		return true
	})
	return nil, nil
}

func inScope(path string) bool {
	for _, p := range Packages {
		if p == path {
			return true
		}
	}
	return false
}

func checkSelector(pass *lintkit.Pass, sel *ast.SelectorExpr) {
	path, name, ok := pass.QualifiedCallee(sel)
	if !ok {
		return
	}
	switch path {
	case "time":
		if clockFuncs[name] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; "+
				"thread timing through the caller or drop it from the result path", name)
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[name] {
			return
		}
		// Only package-level *functions* are the global source; types
		// (rand.Rand, rand.Source) and constants are fine.
		if obj, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && obj != nil {
			pass.Reportf(sel.Pos(), "%s.%s draws from the global rand source; "+
				"use a seeded *rand.Rand (mathx.NewRand / parallel.SeedStream) instead", pathBase(path), name)
		}
	}
}

func pathBase(path string) string {
	if path == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}

// checkMapRange flags order-sensitive accumulation inside a range over a
// map. Collecting the *keys* for a later sort is the sanctioned pattern
// and stays legal:
//
//	for k := range m { keys = append(keys, k) }   // ok
//	for _, v := range m { sum += v.Weight }       // flagged
//	for k, v := range m { out = append(out, v) }  // flagged
func checkMapRange(pass *lintkit.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	keyObj := identObj(pass, rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own scope; closures are checked via their own statements when run
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, keyObj, n)
		case *ast.IncDecStmt:
			// counters (n++) are order-insensitive; integer addition
			// commutes exactly.
		}
		return true
	})
}

func checkMapRangeAssign(pass *lintkit.Pass, rng *ast.RangeStmt, keyObj types.Object, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if obj := rootObj(pass, lhs); obj != nil && declaredOutside(obj, rng) && lintkit.IsFloat(pass.TypesInfo.TypeOf(lhs)) {
				pass.Reportf(as.Pos(), "float accumulation over map iteration order is not reproducible; "+
					"collect keys, sort, then fold in sorted order")
			}
		}
	case token.ASSIGN, token.DEFINE:
		// look for x = append(x, expr) where expr is not the range key.
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			obj := rootObj(pass, as.Lhs[i])
			if obj == nil || !declaredOutside(obj, rng) {
				continue
			}
			for _, arg := range call.Args[1:] {
				if keyObj != nil && identObj(pass, arg) == keyObj {
					continue // append(keys, k): collect-then-sort pattern
				}
				pass.Reportf(as.Pos(), "append of a map *value* while ranging over the map records map order; "+
					"collect keys, sort, then append in sorted order")
				break
			}
		}
	}
}

// identObj resolves e to its object when e is a plain identifier.
func identObj(pass *lintkit.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// rootObj resolves the base identifier of an lvalue (x, x.f, x[i], …).
func rootObj(pass *lintkit.Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return identObj(pass, v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func declaredOutside(obj types.Object, n ast.Node) bool {
	return obj.Pos() < n.Pos() || obj.Pos() >= n.End()
}
