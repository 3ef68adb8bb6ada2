package api

// Engine is aliased by the root package.
type Engine struct {
	Limit int
	Inner Detail
}

// Run is reached through the root package's alias.
func (e *Engine) Run() int { return e.Limit }

// Detail is reached through an exported field of an aliased type.
type Detail struct{}

// Explain is reached through Engine.Inner.
func (Detail) Explain() string { return "" }

// Result is reached through the signature of fix.Open.
type Result struct{ v float64 }

// NewResult is called by the root package.
func NewResult() *Result { return &Result{} }

// Score is reached through fix.Open's result type.
func (r *Result) Score() float64 { return r.v }

// UsedElsewhere is called from package shapes.
func UsedElsewhere() int { return 1 }

// OnlyInTests has callers in _test.go files only.
func OnlyInTests() int { return 2 } // want `exported func OnlyInTests is used by no non-test file of the module`

// Kept has no caller, and says why it stays.
//
//lint:allow deadexport the fixture pins that Check honours directives
func Kept() {}

// Limit is used only inside its own declaration.
const Limit = 3 // want `exported const Limit is used by no non-test file of the module`

// countdown refers only to itself.
func countdown(n int) int { // want `func countdown is used by no non-test file of package api`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// lonely is referred to only by its own methods.
type lonely struct{} // want `type lonely is used by no non-test file of package api`

func (l lonely) self() lonely { return l } // want `method lonely.self is used by no non-test file of package api`
