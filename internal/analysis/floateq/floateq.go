// Package floateq flags == and != between floating-point expressions.
//
// Exact float equality is how divergence checks, threshold gates and
// golden comparisons silently rot: a refactor that changes summation
// order by one ULP flips the comparison while every test still passes.
// Deterministic code compares floats through an explicit tolerance
// (|a−b| <= tol·max(1, |a|, |b|)), an exact-representation contract
// documented at the comparison site (//lint:allow floateq …), or
// math.IsNaN for the NaN probe.
//
// The analyzer stays quiet on:
//   - x != x / x == x — the classic NaN idiom (math.IsNaN reads better,
//     but the comparison is exact by construction);
//   - comparisons where both operands are compile-time constants;
//   - comparisons against an integral constant (x == 0, n != -1):
//     exact-zero guards and integer-valued sentinels are exact in IEEE
//     754 and idiomatic Go. A computed value compared to a fractional
//     constant (score == 0.7) is still flagged — that is the
//     threshold-drift bug this analyzer exists for.
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"

	"leapme/internal/analysis/lintkit"
)

// Analyzer is the floateq check.
var Analyzer = &lintkit.Analyzer{
	Name: "floateq",
	Doc: "flag ==/!= on floating-point expressions; compare within a tolerance " +
		"or document exactness with //lint:allow floateq <reason>",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		lt := pass.TypesInfo.TypeOf(be.X)
		rt := pass.TypesInfo.TypeOf(be.Y)
		if !lintkit.IsFloat(lt) && !lintkit.IsFloat(rt) {
			return true
		}
		if bothConstant(pass, be) {
			return true
		}
		if isIntegralConst(pass, be.X) || isIntegralConst(pass, be.Y) {
			return true // exact-zero guard or integer sentinel
		}
		if types.ExprString(be.X) == types.ExprString(be.Y) {
			return true // x != x NaN probe
		}
		pass.Reportf(be.Pos(), "floating-point %s compares exact bits; compare within a tolerance "+
			"(or use math.IsNaN), or annotate //lint:allow floateq <why exact equality is correct here>", be.Op)
		return true
	})
	return nil, nil
}

func bothConstant(pass *lintkit.Pass, be *ast.BinaryExpr) bool {
	xv, xok := pass.TypesInfo.Types[be.X]
	yv, yok := pass.TypesInfo.Types[be.Y]
	return xok && yok && xv.Value != nil && yv.Value != nil
}

// isIntegralConst reports whether e is a compile-time constant with an
// exact integer value (0, -1, 1e3, …), all of which are represented
// exactly in float64 well past any feature magnitude this repo handles.
func isIntegralConst(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int:
		return true
	case constant.Float:
		f, exact := constant.Float64Val(tv.Value)
		//lint:allow floateq Trunc returns f's own bits when f is integral; equality is exact by construction
		return exact && f == math.Trunc(f)
	}
	return false
}
