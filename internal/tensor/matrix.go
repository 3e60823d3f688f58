// Package tensor provides dense matrix and rank-3 tensor types. It is the
// numerical substrate for the POD compression and neural-network packages.
//
// All storage is row-major float64. The MatMul* family is a thin wrapper
// over internal/kernel's blocked GEMM (SIMD where available, deterministic
// row-partitioned parallelism); execution policy lives in kernel.Config,
// not in package-global state here.
package tensor

import (
	"fmt"
	"math"

	"podnas/internal/kernel"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
//
// No production code calls this anymore: every hot-path consumer moved
// to kernel.Gemm's transA/transB flags, which read the operand in
// transposed order (in place for A, while packing for B) instead of
// materializing a copy. T is
// kept for tests and as a convenience for exploratory code; if you find
// yourself calling it next to a MatMul, use the transposed MatMul
// variant instead.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	const bs = 64
	for ib := 0; ib < m.Rows; ib += bs {
		imax := min(ib+bs, m.Rows)
		for jb := 0; jb < m.Cols; jb += bs {
			jmax := min(jb+bs, m.Cols)
			for i := ib; i < imax; i++ {
				row := m.Data[i*m.Cols:]
				for j := jb; j < jmax; j++ {
					out.Data[j*m.Rows+i] = row[j]
				}
			}
		}
	}
	return out
}

// Equal reports whether m and n have identical shape and entries within tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Kern returns m as a kernel.Mat view (shared storage, dense stride).
// The MatMul* family below is a thin compatibility surface over the one
// kernel.Gemm entry point; call the kernel directly for strided views
// or a non-default execution Config.
func (m *Matrix) Kern() kernel.Mat {
	return kernel.Mat{R: m.Rows, C: m.Cols, Stride: m.Cols, Data: m.Data}
}

// MatMul computes a×b into a new matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a×b. dst must be preallocated with the right
// shape, must not alias a or b, and is overwritten.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	kernel.Gemm(dst.Kern(), a.Kern(), b.Kern(), false, false, false)
}

// MatMulAddInto computes dst += a×b without zeroing dst first.
func MatMulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulAddInto shape mismatch")
	}
	kernel.Gemm(dst.Kern(), a.Kern(), b.Kern(), false, false, true)
}

// MatMulTransA computes aᵀ×b into a new matrix without materializing aᵀ.
func MatMulTransA(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("tensor: MatMulTransA shape mismatch")
	}
	out := NewMatrix(a.Cols, b.Cols)
	kernel.Gemm(out.Kern(), a.Kern(), b.Kern(), true, false, false)
	return out
}

// MatMulTransAAddInto computes dst += aᵀ×b.
func MatMulTransAAddInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulTransAAddInto shape mismatch")
	}
	kernel.Gemm(dst.Kern(), a.Kern(), b.Kern(), true, false, true)
}

// MatMulTransB computes a×bᵀ into a new matrix without materializing bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("tensor: MatMulTransB shape mismatch")
	}
	out := NewMatrix(a.Rows, b.Rows)
	kernel.Gemm(out.Kern(), a.Kern(), b.Kern(), false, true, false)
	return out
}

// Gram computes aᵀ×a (the Gram / correlation matrix), exploiting symmetry.
func Gram(a *Matrix) *Matrix {
	n := a.Cols
	out := NewMatrix(n, n)
	MatMulTransAAddInto(out, a, a)
	// Symmetrize to remove accumulated rounding asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (out.At(i, j) + out.At(j, i))
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// Add returns a+b as a new matrix.
func Add(a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a-b as a new matrix.
func Sub(a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Axpy computes y += alpha*x for equally shaped matrices.
func Axpy(alpha float64, x, y *Matrix) {
	checkSameShape("Axpy", x, y)
	for i, v := range x.Data {
		y.Data[i] += alpha * v
	}
}

// ColMeans returns the column means of m as a slice of length m.Cols.
func (m *Matrix) ColMeans() []float64 {
	means := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1.0 / float64(m.Rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// RowMeans returns the row means of m as a slice of length m.Rows.
func (m *Matrix) RowMeans() []float64 {
	means := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		means[i] = s / float64(m.Cols)
	}
	return means
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
