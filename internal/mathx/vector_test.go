package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{}, []float64{}, 0},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{1, -1}, []float64{1, 1}, 0},
		{[]float64{0.5}, []float64{0.5}, 0.25},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarity([]float64{2, 2}, []float64{1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := CosineSimilarity([]float64{1, 1}, []float64{-1, -1}); !almostEqual(got, -1, 1e-12) {
		t.Errorf("antiparallel cosine = %v, want -1", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestCosineSimilarityBounds(t *testing.T) {
	f := func(a, b [8]float64) bool {
		// testing/quick generates values up to ±MaxFloat64, whose squares
		// overflow; fold inputs into a sane range first.
		av, bv := make([]float64, 8), make([]float64, 8)
		for i := range a {
			av[i] = math.Remainder(a[i], 1e6)
			bv[i] = math.Remainder(b[i], 1e6)
		}
		c := CosineSimilarity(av, bv)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	got := make([]float64, 3)
	if AddTo(got, a, b); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("AddTo = %v", got)
	}
	if ScaleTo(got, a, 2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("ScaleTo = %v", got)
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b [6]float64) bool {
		r := make([]float64, len(a))
		AddTo(r, a[:], b[:])
		neg := make([]float64, len(b))
		ScaleTo(neg, b[:], -1)
		AddTo(r, r, neg)
		for i := range r {
			if !almostEqual(r[i], a[i], 1e-6*(1+math.Abs(a[i])+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAliasingAddTo(t *testing.T) {
	a := []float64{1, 2}
	AddTo(a, a, a) // a = a+a
	if a[0] != 2 || a[1] != 4 {
		t.Errorf("aliased AddTo = %v", a)
	}
}

func TestStats(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Sum(v); got != 40 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestMeanVectors(t *testing.T) {
	got := MeanVectors([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("MeanVectors = %v", got)
	}
	if MeanVectors(nil) != nil {
		t.Error("MeanVectors(nil) should be nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
}
