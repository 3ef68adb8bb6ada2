package mathx

import (
	"math"
	"testing"
)

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"exact", 1.5, 1.5, DefaultTol, true},
		{"zero", 0, 0, DefaultTol, true},
		{"one ulp of reassociation", 0.1 + 0.2, 0.3, DefaultTol, true},
		{"absolute near zero", 1e-12, -1e-12, 1e-9, true},
		{"relative at large scale", 1e12, 1e12 * (1 + 1e-10), 1e-9, true},
		{"relative violation", 1e12, 1e12 * (1 + 1e-8), 1e-9, false},
		{"plain difference", 1.0, 1.1, DefaultTol, false},
		{"nan left", math.NaN(), 1, DefaultTol, false},
		{"nan right", 1, math.NaN(), DefaultTol, false},
		{"nan both", math.NaN(), math.NaN(), DefaultTol, false},
		{"infinities equal", math.Inf(1), math.Inf(1), DefaultTol, true},
		{"opposite infinities", math.Inf(1), math.Inf(-1), DefaultTol, false},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("%s: AlmostEqual(%v, %v, %v) = %v, want %v", c.name, c.a, c.b, c.tol, got, c.want)
		}
		if got := AlmostEqual(c.b, c.a, c.tol); got != c.want {
			t.Errorf("%s: not symmetric: AlmostEqual(%v, %v, %v) = %v, want %v", c.name, c.b, c.a, c.tol, got, c.want)
		}
	}
}
