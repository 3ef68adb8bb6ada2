package api

import (
	"testing"

	"leapme/internal/analysis/deadexport/testdata/src/internal/testonly"
)

func TestOnlyInTests(t *testing.T) {
	if OnlyInTests()+testonly.Helper() != 3 {
		t.Fatal("fixture")
	}
}
