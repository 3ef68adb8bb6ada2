// Package errvocab implements the errvocab analyzer: every non-2xx
// HTTP response produced by the serving layer must go through the typed
// error-vocabulary helpers.
//
// The server answers errors in a typed JSON vocabulary — apiError{error,
// code, retry_after_ms} written by fail/failCode/shed/failDeadline/
// enqueueFail — and clients dispatch on those codes (overloaded,
// draining, deadline_exceeded, ...) to decide whether and when to
// retry. A new endpoint answering a naked http.Error or bare
// WriteHeader(503) silently breaks that contract: a client sees an
// unparseable body and treats the failure as opaque. errvocab makes
// the vocabulary load-bearing: inside the serving packages, calls to
// net/http.Error and to ResponseWriter.WriteHeader with an error status
// (>= 400, or a status the analyzer cannot prove harmless) are reported
// unless they occur inside one of the designated writer helpers.
//
// Success statuses stay unrestricted: WriteHeader(http.StatusCreated)
// and friends are not errors and carry no retry contract.
package errvocab

import (
	"go/ast"
	"go/constant"

	"leapme/internal/analysis/lintkit"
)

// ScopePackages is the set of import paths the analyzer enforces — the
// HTTP serving layer. A var so the fixture tests can retarget it.
var ScopePackages = map[string]bool{
	"leapme/internal/serve":   true,
	"leapme/cmd/leapme-serve": true,
}

// AllowedWriters names the functions that are the error vocabulary:
// the single WriteHeader each of them performs is the blessed exit
// point every error response funnels through. (fail, failDeadline and
// enqueueFail delegate to failCode, so they need no entry of their
// own.)
var AllowedWriters = map[string]bool{
	"failCode": true, // the generic typed-JSON error writer
	"shed":     true, // 429 with Retry-After from the admission gate
	"probe":    true, // readiness-probe statuses (non-counting)
}

// Analyzer is the errvocab analyzer.
var Analyzer = &lintkit.Analyzer{
	Name: "errvocab",
	Doc: "in internal/serve and cmd/leapme-serve, non-2xx responses must be produced by the typed " +
		"error-vocabulary helpers (fail/failCode/shed/failDeadline/enqueueFail), never naked http.Error " +
		"or WriteHeader(4xx|5xx)",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	if pass.Pkg == nil || !ScopePackages[pass.Pkg.Path()] {
		return nil, nil
	}
	pass.InspectStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inAllowedWriter(stack) {
			return true
		}
		// http.Error(w, msg, status) — always an untyped text/plain body.
		if path, name, ok := pass.QualifiedCallee(call.Fun); ok && path == "net/http" && name == "Error" {
			pass.Reportf(call.Pos(), "naked http.Error bypasses the typed error vocabulary: clients get text/plain instead of apiError JSON — use fail/failCode (or probe for readiness statuses)")
			return true
		}
		// w.WriteHeader(status) — flag error statuses and anything the
		// analyzer cannot prove is a success status.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WriteHeader" {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil {
			return true
		}
		obj := s.Obj()
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
			return true
		}
		if len(call.Args) != 1 {
			return true
		}
		if status, known := constStatus(pass, call.Args[0]); known {
			if status < 400 {
				return true
			}
			pass.Reportf(call.Pos(), "naked WriteHeader(%d) bypasses the typed error vocabulary: the client's retry contract needs an apiError code — use fail/failCode/shed/failDeadline", status)
			return true
		}
		pass.Reportf(call.Pos(), "WriteHeader with a non-constant status may write an error response outside the typed vocabulary — route error statuses through fail/failCode")
		return true
	})
	return nil, nil
}

// inAllowedWriter reports whether the innermost enclosing function
// declaration is one of the designated vocabulary writers. Function
// literals inherit their enclosing declaration's standing.
func inAllowedWriter(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return AllowedWriters[fd.Name.Name]
		}
	}
	return false
}

// constStatus evaluates arg as a compile-time integer constant.
func constStatus(pass *lintkit.Pass, arg ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact {
		return 0, false
	}
	return v, true
}
