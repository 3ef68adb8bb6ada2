package shapes

import "leapme/internal/analysis/deadexport/testdata/src/internal/api"

// Sizer is the interface the tool calls through.
type Sizer interface{ Size() int }

type sizer interface{ size() int }

// box is used only as a Sizer and a sizer.
type box struct{}

// Size is reached only through Sizer.Size.
func (box) Size() int { return api.UsedElsewhere() }

func (box) size() int { return 1 }

// Wide is never called: no interface has a Wide method.
func (box) Wide() int { return 2 } // want `exported method box.Wide is used by no non-test file of the module`

// New returns the package's Sizer.
func New() Sizer { return box{} }

// Small calls through the unexported sizer interface.
func Small() int {
	var s sizer = box{}
	return s.size()
}
