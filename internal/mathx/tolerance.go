package mathx

import "math"

// DefaultTol is the comparison tolerance used across the repository
// when no domain-specific bound applies: loose enough to absorb a few
// hundred ULPs of reassociation drift on O(1) quantities, tight enough
// to catch any real numeric change.
const DefaultTol = 1e-9

// AlmostEqual reports whether a and b are equal within tol, measured
// absolutely for values near zero and relatively otherwise:
//
//	|a-b| <= tol * max(1, |a|, |b|)
//
// This is the comparison the floateq analyzer points to instead of ==:
// it is reflexive, symmetric, and stable under the one-ULP summation
// reordering that exact equality turns into a Heisenbug. NaN compares
// unequal to everything, matching IEEE semantics.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:allow floateq fast path; exact equality implies almost-equality
		return true
	}
	// Unequal infinities (Inf vs -Inf, Inf vs finite) would otherwise
	// satisfy |a-b| <= tol*Inf below.
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}
