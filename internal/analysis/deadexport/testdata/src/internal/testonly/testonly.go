// Package testonly is imported only by a _test.go file.
package testonly // want `package testonly is imported by no non-test file of the module`

// Helper is not reported on its own: the package clause finding covers it.
func Helper() int { return 1 }
