package lintkit

// funcflow is lintkit's light per-function dataflow layer: a statement
// walker that threads lock state through branches, and a classifier for
// statically-detectable heap allocations. Both work directly on the
// typed AST — no go/ssa, no CFG construction — trading path precision
// for a dependency-free implementation that is exact on the straight-
// line lock/unlock and arena patterns this repository actually uses.
// The hotalloc and locksafe analyzers are built on it; future analyzers
// that need "what happens between acquire and release" or "does this
// body allocate" inherit it for free.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ExprString renders an expression as a canonical key: identifiers and
// selector chains print as written (b.mu, s.cache.mu), everything else
// falls back to a structural placeholder. Two syntactically identical
// references to the same lock render identically, which is all the lock
// tracker needs.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// --- lock-state tracking ---

// LockOp classifies a sync.Mutex / sync.RWMutex method call.
type LockOp int

const (
	LockAcquire  LockOp = iota // Lock()
	LockRelease                // Unlock()
	RLockAcquire               // RLock()
	RLockRelease               // RUnlock()
)

// MutexOp reports whether call is a Lock/Unlock/RLock/RUnlock method
// call on a sync.Mutex or sync.RWMutex (including ones promoted through
// embedding), returning the canonical receiver key and the operation.
func (p *Pass) MutexOp(call *ast.CallExpr) (key string, op LockOp, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	s := p.TypesInfo.Selections[sel]
	if s == nil {
		return "", 0, false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", 0, false
	}
	rt := recv.Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	tn := named.Obj().Name()
	if tn != "Mutex" && tn != "RWMutex" {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock":
		op = LockAcquire
	case "Unlock":
		op = LockRelease
	case "RLock":
		op = RLockAcquire
	case "RUnlock":
		op = RLockRelease
	default:
		return "", 0, false
	}
	return ExprString(sel.X), op, true
}

// HeldLock is one lock the flow walker believes is held at a program
// point.
type HeldLock struct {
	Key      string    // canonical receiver expression, e.g. "b.mu"
	Op       LockOp    // LockAcquire or RLockAcquire
	Pos      token.Pos // where it was acquired
	Deferred bool      // a matching deferred unlock is registered
}

func (h HeldLock) String() string {
	if h.Op == RLockAcquire {
		return h.Key + " (RLock)"
	}
	return h.Key
}

// LockFlow walks one function body tracking which mutexes are held,
// invoking callbacks at the points the locksafe invariants care about.
// Branches (if/switch/select) are walked on copies of the state and
// merged as a union; loops are walked once and must leave the lock set
// unchanged. Function literals are separate lock contexts: the walker
// does not descend into them (analyze them as their own functions), and
// a `go` statement's call is likewise skipped.
type LockFlow struct {
	Pass *Pass
	// OnBlocked fires for a potentially-blocking operation reached while
	// at least one lock is held: channel send/receive, a select with no
	// default and no ctx.Done() case, time.Sleep, net/http calls, and
	// Wait() method calls.
	OnBlocked func(pos token.Pos, what string, held []HeldLock)
	// OnExit fires when a path leaves the function (return or falling off
	// the end) while a lock without a deferred unlock is still held.
	OnExit func(pos token.Pos, held []HeldLock)
	// OnDoubleLock fires when a lock is acquired while the walker already
	// believes the same key is held (self-deadlock for Mutex and for
	// RWMutex writers).
	OnDoubleLock func(pos token.Pos, lock HeldLock)
	// OnLoopImbalance fires when one loop iteration ends with a different
	// lock set than it started with — the leak that compounds per
	// iteration.
	OnLoopImbalance func(pos token.Pos, before, after []HeldLock)
}

type lockState struct {
	held []HeldLock
}

func (st *lockState) clone() *lockState {
	return &lockState{held: append([]HeldLock(nil), st.held...)}
}

func (st *lockState) find(key string) int {
	for i, h := range st.held {
		if h.Key == key {
			return i
		}
	}
	return -1
}

// merge unions the other state into st: a lock held on either path is
// conservatively treated as held after the join.
func (st *lockState) merge(other *lockState) {
	for _, h := range other.held {
		if st.find(h.Key) < 0 {
			st.held = append(st.held, h)
		}
	}
}

// undeferred returns the held locks that have no deferred unlock —
// the ones a function exit leaks.
func (st *lockState) undeferred() []HeldLock {
	var out []HeldLock
	for _, h := range st.held {
		if !h.Deferred {
			out = append(out, h)
		}
	}
	return out
}

// Func walks fd's body. It is the entry point for FuncDecls and
// FuncLits alike (pass the body).
func (lf *LockFlow) Func(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	st := &lockState{}
	lf.stmts(st, body.List)
	if rem := st.undeferred(); len(rem) > 0 && lf.OnExit != nil {
		lf.OnExit(body.Rbrace, rem)
	}
}

func (lf *LockFlow) stmts(st *lockState, list []ast.Stmt) {
	for _, s := range list {
		lf.stmt(st, s)
	}
}

func (lf *LockFlow) stmt(st *lockState, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		lf.stmts(st, s.List)
	case *ast.LabeledStmt:
		lf.stmt(st, s.Stmt)
	case *ast.ExprStmt:
		lf.expr(st, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lf.expr(st, e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						lf.expr(st, e)
					}
				}
			}
		}
	case *ast.SendStmt:
		lf.blocked(st, s.Pos(), "channel send")
	case *ast.IncDecStmt:
		// pure; nothing to do
	case *ast.DeferStmt:
		lf.deferStmt(st, s)
	case *ast.GoStmt:
		// The launched goroutine runs in its own lock context; launching
		// itself does not block.
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lf.expr(st, e)
		}
		if rem := st.undeferred(); len(rem) > 0 && lf.OnExit != nil {
			lf.OnExit(s.Pos(), rem)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lf.stmt(st, s.Init)
		}
		lf.expr(st, s.Cond)
		then := st.clone()
		lf.stmt(then, s.Body)
		other := st.clone()
		if s.Else != nil {
			lf.stmt(other, s.Else)
		}
		*st = *then
		st.merge(other)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lf.stmt(st, s.Init)
		}
		if s.Tag != nil {
			lf.expr(st, s.Tag)
		}
		lf.caseBodies(st, s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lf.stmt(st, s.Init)
		}
		lf.caseBodies(st, s.Body)
	case *ast.SelectStmt:
		lf.selectStmt(st, s)
	case *ast.ForStmt:
		if s.Init != nil {
			lf.stmt(st, s.Init)
		}
		if s.Cond != nil {
			lf.expr(st, s.Cond)
		}
		lf.loopBody(st, s.Pos(), s.Body, func(inner *lockState) {
			if s.Post != nil {
				lf.stmt(inner, s.Post)
			}
		})
	case *ast.RangeStmt:
		if t := lf.Pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				lf.blocked(st, s.Pos(), "range over channel")
			}
		}
		lf.loopBody(st, s.Pos(), s.Body, nil)
	}
}

func (lf *LockFlow) loopBody(st *lockState, pos token.Pos, body *ast.BlockStmt, post func(*lockState)) {
	inner := st.clone()
	lf.stmt(inner, body)
	if post != nil {
		post(inner)
	}
	if !sameKeys(st, inner) && lf.OnLoopImbalance != nil {
		lf.OnLoopImbalance(pos, st.held, inner.held)
	}
	st.merge(inner)
}

func sameKeys(a, b *lockState) bool {
	if len(a.held) != len(b.held) {
		return false
	}
	for _, h := range a.held {
		if b.find(h.Key) < 0 {
			return false
		}
	}
	return true
}

func (lf *LockFlow) caseBodies(st *lockState, body *ast.BlockStmt) {
	var merged *lockState
	sawDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			sawDefault = true
		}
		branch := st.clone()
		lf.stmts(branch, cc.Body)
		if merged == nil {
			merged = branch
		} else {
			merged.merge(branch)
		}
	}
	// Without a default clause, falling past every case is a possible
	// outcome, so the incoming state joins the union. With one, exactly
	// one branch runs.
	if merged == nil {
		return
	}
	if !sawDefault {
		merged.merge(st)
	}
	*st = *merged
}

// selectStmt handles the one blocking construct with an exemption: a
// select with a default clause cannot block, and a select with a
// ctx.Done() receive case is bounded by caller cancellation — the
// pattern EnqueueSpan uses to send on the batch queue under RLock.
func (lf *LockFlow) selectStmt(st *lockState, s *ast.SelectStmt) {
	hasDefault, hasCtxDone := false, false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if lf.isCtxDoneRecv(cc.Comm) {
			hasCtxDone = true
		}
	}
	if !hasDefault && !hasCtxDone {
		lf.blocked(st, s.Pos(), "select with no default and no ctx.Done() case")
	}
	// The comm clauses themselves are the select's alternatives — covered
	// by the verdict above. Case bodies run after a branch commits, with
	// the lock still held, so they are walked normally. Exactly one
	// branch runs, so the outcome is the union of the branches alone.
	var merged *lockState
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		branch := st.clone()
		lf.stmts(branch, cc.Body)
		if merged == nil {
			merged = branch
		} else {
			merged.merge(branch)
		}
	}
	if merged != nil {
		*st = *merged
	}
}

// isCtxDoneRecv reports whether a select comm statement receives from
// the Done() channel of a context.Context.
func (lf *LockFlow) isCtxDoneRecv(comm ast.Stmt) bool {
	var recv ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		recv = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			recv = c.Rhs[0]
		}
	}
	ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || ue.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := lf.Pass.TypesInfo.TypeOf(sel.X)
	return t != nil && IsContextType(t)
}

func (lf *LockFlow) deferStmt(st *lockState, s *ast.DeferStmt) {
	// defer x.Unlock() — the canonical paired release.
	if key, op, ok := lf.Pass.MutexOp(s.Call); ok && (op == LockRelease || op == RLockRelease) {
		if i := st.find(key); i >= 0 {
			st.held[i].Deferred = true
		}
		return
	}
	// defer func() { ...; x.Unlock(); ... }() — scan the literal body for
	// releases and credit them too.
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op, ok := lf.Pass.MutexOp(call); ok && (op == LockRelease || op == RLockRelease) {
				if i := st.find(key); i >= 0 {
					st.held[i].Deferred = true
				}
			}
			return true
		})
	}
}

// expr scans one expression for lock operations, blocking operations and
// nested receives. It does not descend into function literals.
func (lf *LockFlow) expr(st *lockState, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lf.blocked(st, n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if key, op, ok := lf.Pass.MutexOp(n); ok {
				lf.applyLockOp(st, n.Pos(), key, op)
				return false
			}
			if what, isBlocking := lf.blockingCall(n); isBlocking {
				lf.blocked(st, n.Pos(), what)
			}
		}
		return true
	})
}

func (lf *LockFlow) applyLockOp(st *lockState, pos token.Pos, key string, op LockOp) {
	switch op {
	case LockAcquire, RLockAcquire:
		if i := st.find(key); i >= 0 {
			if lf.OnDoubleLock != nil {
				lf.OnDoubleLock(pos, st.held[i])
			}
			return
		}
		st.held = append(st.held, HeldLock{Key: key, Op: op, Pos: pos})
	case LockRelease, RLockRelease:
		if i := st.find(key); i >= 0 {
			st.held = append(st.held[:i], st.held[i+1:]...)
		}
	}
}

// blockingCall classifies calls that can park the goroutine: time.Sleep,
// anything in net or net/*, and Wait() methods (sync.WaitGroup,
// sync.Cond, exec.Cmd and friends all spell it the same way).
func (lf *LockFlow) blockingCall(call *ast.CallExpr) (string, bool) {
	if path, name, ok := lf.Pass.QualifiedCallee(call.Fun); ok {
		if path == "time" && name == "Sleep" {
			return "time.Sleep", true
		}
		if path == "net" || strings.HasPrefix(path, "net/") {
			return path + "." + name + " (network I/O)", true
		}
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(call.Args) == 0 {
		return ExprString(sel.X) + ".Wait()", true
	}
	return "", false
}

func (lf *LockFlow) blocked(st *lockState, pos token.Pos, what string) {
	if len(st.held) == 0 || lf.OnBlocked == nil {
		return
	}
	lf.OnBlocked(pos, what, append([]HeldLock(nil), st.held...))
}

// --- alloc-effect tracking ---

// AllocSite is one statically-detected heap allocation (or a construct
// that defeats static reasoning about allocation, like a closure).
type AllocSite struct {
	Pos  token.Pos
	What string
}

// AllocSites scans a function body for constructs that allocate on the
// hot path: make/new, map and slice literals, escaping composite
// literals, appends that may grow their backing array, closures, fmt
// calls, strings.Builder use, and implicit boxing into interface
// values. Arguments of panic(...) are exempt — a panicking hot path has
// already abandoned the zero-alloc contract, and the repository's
// kernels all use panic(fmt.Sprintf(...)) for shape violations.
//
// The classification is deliberately conservative in the other
// direction too: calls into other packages are not charged (their
// bodies are out of reach without export data), so a clean AllocSites
// answer is necessary, not sufficient — the AllocsPerRun gates remain
// the ground truth and the hotalloc cross-check ties the two together.
func AllocSites(pass *Pass, body ast.Node) []AllocSite {
	var sites []AllocSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, AllocSite{Pos: pos, What: what})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(n.Pos(), "closure: the func value and captured variables escape to the heap")
			return true // allocs inside the closure body run per invocation; keep scanning
		case *ast.Ident:
			// Variables only: the type name in `var b strings.Builder` is
			// itself an Ident of this type and must not double-report.
			obj := pass.TypesInfo.Defs[n]
			if obj == nil {
				obj = pass.TypesInfo.Uses[n]
			}
			if _, isVar := obj.(*types.Var); isVar && isStringsBuilder(obj.Type()) {
				add(n.Pos(), "strings.Builder allocates on Grow/WriteString")
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			case *types.Slice:
				add(n.Pos(), "slice literal allocates its backing array")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					add(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			return allocCall(pass, n, add)
		}
		return true
	})
	return sites
}

// allocCall classifies one call expression, returning false to prune
// the walk below it (panic arguments are exempt wholesale).
func allocCall(pass *Pass, call *ast.CallExpr, add func(token.Pos, string)) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				// Cold by definition; don't charge its argument.
				return false
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				// The blessed arena pattern re-slices an existing buffer:
				// append(buf[:0], ...). Anything else may grow.
				if len(call.Args) > 0 {
					if _, resliced := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !resliced {
						add(call.Pos(), "append may grow its backing array; use the append(buf[:0], ...) arena pattern")
					}
				}
			}
			return true
		}
	}
	// fmt.* — every formatting call allocates.
	if path, name, ok := pass.QualifiedCallee(call.Fun); ok && path == "fmt" {
		add(call.Pos(), "fmt."+name+" allocates")
		return true
	}
	// Explicit conversion to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) && len(call.Args) == 1 {
			if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at.Underlying()) {
				add(call.Pos(), "conversion boxes a concrete value into an interface")
			}
		}
		return true
	}
	// Implicit boxing at call sites: a concrete argument passed for an
	// interface-typed parameter.
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return true
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice; no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		add(arg.Pos(), "argument boxes a concrete value into an interface parameter")
	}
	return true
}

func isStringsBuilder(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "strings" && obj.Name() == "Builder"
}
