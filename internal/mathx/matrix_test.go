package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("NewMatrix = %+v", m)
	}
	r := m.Row(1)
	r[0] = 42
	if m.Data[3] != 42 {
		t.Error("Row must be a view, not a copy")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero left %v", m.Data)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.Row(i)[j] != tr.Row(j)[i] {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	f := func(vals [12]float64, x [3]float64) bool {
		m := NewMatrix(3, 4)
		copy(m.Data, vals[:])
		got := make([]float64, 4)
		m.MulVecT(got, x[:])
		want := make([]float64, 4)
		m.T().MulVec(want, x[:])
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOuterTo(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterTo(2, []float64{1, 2}, []float64{3, 4})
	// 2 * [1;2]·[3 4] = [[6,8],[12,16]]
	if m.Data[0] != 6 || m.Data[1] != 8 || m.Data[2] != 12 || m.Data[3] != 16 {
		t.Errorf("AddOuterTo = %v", m.Data)
	}
}

func TestCloneAndScale(t *testing.T) {
	m := NewMatrix(1, 2)
	copy(m.Data, []float64{1, 2})
	c := NewMatrix(1, 2)
	copy(c.Data, m.Data)
	c.Scale(10)
	if m.Data[0] != 1 || c.Data[0] != 10 {
		t.Error("Scale broken")
	}
	c.AddScaled(1, m)
	if c.Data[1] != 22 {
		t.Errorf("AddScaled = %v", c.Data)
	}
}
