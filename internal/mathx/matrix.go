package mathx

import "fmt"

// Matrix is a dense row-major matrix of float64.
// The zero value is an empty matrix; use NewMatrix to allocate.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: NewMatrix with negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a mutable slice view into the matrix.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets all elements of m to 0.
func (m *Matrix) Zero() { Zero(m.Data) }

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// MulVec computes dst = m · x for a column vector x of length m.Cols,
// storing the result in dst of length m.Rows.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: MulVec shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// MulVecT computes dst = mᵀ · x for x of length m.Rows, storing into dst of
// length m.Cols, without materialising the transpose.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: MulVecT shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		AxpyTo(dst, x[i], m.Row(i))
	}
}

// AddOuterTo accumulates m += alpha · x ⊗ y (outer product), where x has
// length m.Rows and y has length m.Cols.
func (m *Matrix) AddOuterTo(alpha float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("mathx: AddOuterTo shape mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		AxpyTo(m.Row(i), alpha*xi, y)
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled accumulates m += alpha · other, element-wise.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mathx: AddScaled shape mismatch")
	}
	AxpyTo(m.Data, alpha, other.Data)
}
