package mathx

import (
	"math"
	"testing"
)

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestFillUniformRange(t *testing.T) {
	v := make([]float64, 10000)
	FillUniform(v, -2, 3, NewRand(1))
	for _, x := range v {
		if x < -2 || x >= 3 {
			t.Fatalf("sample %v outside [-2,3)", x)
		}
	}
	if m := Mean(v); math.Abs(m-0.5) > 0.1 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
}

func TestFillNormalMoments(t *testing.T) {
	v := make([]float64, 20000)
	FillNormal(v, 1, 2, NewRand(2))
	if m := Mean(v); math.Abs(m-1) > 0.1 {
		t.Errorf("normal mean = %v, want ~1", m)
	}
	var ss float64
	for _, x := range v {
		ss += (x - 1) * (x - 1)
	}
	if s := math.Sqrt(ss / float64(len(v))); math.Abs(s-2) > 0.1 {
		t.Errorf("normal std = %v, want ~2", s)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(idx, NewRand(6))
	seen := make([]bool, 8)
	for _, i := range idx {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}
