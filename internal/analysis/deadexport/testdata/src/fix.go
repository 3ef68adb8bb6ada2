// Package fix stands in for the module's root package: its exported API
// is the program's public surface.
package fix

import (
	"leapme/internal/analysis/deadexport/testdata/src/internal/api"
)

// Engine aliases an internal type: its exported methods and fields are
// public API, and so are the types those fields and methods reach.
type Engine = api.Engine

// Open reaches api.Result through its signature only.
func Open() *api.Result { return api.NewResult() }

func unusedRootHelper() {} // want `func unusedRootHelper is used by no non-test file of package fix`
