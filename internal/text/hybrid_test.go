package text

import (
	"math"
	"testing"
)

func TestMongeElkanExactTokens(t *testing.T) {
	a := []string{"camera", "resolution"}
	if got := MongeElkan(a, a, JaroWinkler); math.Abs(got-1) > 1e-12 {
		t.Errorf("self similarity = %v", got)
	}
}

func TestMongeElkanPartial(t *testing.T) {
	a := []string{"camera", "resolution"}
	b := []string{"camera", "resolutions"}
	got := MongeElkanSym(a, b, JaroWinkler)
	if got < 0.9 {
		t.Errorf("near-identical token lists = %v, want > 0.9", got)
	}
	c := []string{"shutter", "speed"}
	far := MongeElkanSym(a, c, JaroWinkler)
	if far >= got {
		t.Errorf("unrelated (%v) should score below related (%v)", far, got)
	}
}

func TestMongeElkanEmpty(t *testing.T) {
	if MongeElkan(nil, []string{"x"}, JaroWinkler) != 0 {
		t.Error("empty a should be 0")
	}
	if MongeElkan([]string{"x"}, nil, JaroWinkler) != 0 {
		t.Error("empty b should be 0")
	}
}

func TestMongeElkanAsymmetry(t *testing.T) {
	// a ⊂ b: forward direction is perfect, backward is not.
	a := []string{"camera"}
	b := []string{"camera", "resolution"}
	fwd := MongeElkan(a, b, JaroWinkler)
	back := MongeElkan(b, a, JaroWinkler)
	if fwd != 1 {
		t.Errorf("subset forward = %v, want 1", fwd)
	}
	if back >= 1 {
		t.Errorf("superset backward = %v, want < 1", back)
	}
	sym := MongeElkanSym(a, b, JaroWinkler)
	if math.Abs(sym-(fwd+back)/2) > 1e-12 {
		t.Error("Sym is not the mean of both directions")
	}
}
