package sparse

import (
	"fmt"
	"math"
)

// CSR32 is a CSR matrix whose values are stored in float32 — the
// mixed-precision representation of the FSAI factors (and optionally the
// operator). The structure (RowPtr, ColIdx) is shared with the float64
// matrix it was narrowed from: only the value array is duplicated, at half
// the bytes. Products accumulate in float64, so the only precision lost is
// the one rounding of each stored value; iterative refinement recovers the
// rest.
type CSR32 struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float32
}

// NewCSR32 narrows a float64 CSR matrix to float32 storage. RowPtr and
// ColIdx are shared with m (read-only by convention); Val is the rounded
// copy. Values outside the float32 range overflow to ±Inf — callers feeding
// matrices with entries beyond ~3.4e38 must rescale first, as any f32
// pipeline would.
func NewCSR32(m *CSR) *CSR32 {
	v := make([]float32, len(m.Val))
	for i, x := range m.Val {
		v[i] = float32(x)
	}
	return &CSR32{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: v}
}

// NNZ returns the number of stored entries.
func (m *CSR32) NNZ() int { return len(m.ColIdx) }

// Row returns the column indices and values of row i as shared slices.
func (m *CSR32) Row(i int) ([]int, []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Widen expands the matrix back to float64 storage (fresh arrays; nothing is
// shared). Round-tripping f64 → f32 → f64 through NewCSR32 and Widen keeps
// every in-range value within one float32 rounding (relative error ≤ 2⁻²⁴).
func (m *CSR32) Widen() *CSR {
	v := make([]float64, len(m.Val))
	for i, x := range m.Val {
		v[i] = float64(x)
	}
	return &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    v,
	}
}

// MaxRelError returns the largest relative narrowing error |f64−f32|/|f64|
// over the stored entries of m versus its float64 source values src (zero
// entries compare absolutely). It is the quantity the round-trip fuzz target
// bounds.
func (m *CSR32) MaxRelError(src []float64) float64 {
	if len(src) != len(m.Val) {
		panic(fmt.Sprintf("sparse: MaxRelError value length %d, want %d", len(src), len(m.Val)))
	}
	worst := 0.0
	for i, v := range src {
		diff := math.Abs(v - float64(m.Val[i]))
		if v != 0 {
			diff /= math.Abs(v)
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst
}

// MulVec computes y = A x with float64 accumulation. It panics when
// dimensions mismatch.
func (m *CSR32) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: CSR32 MulVec shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += float64(m.Val[k]) * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
}

// MulVecTrans computes y = Aᵀ x without forming the transpose, with float64
// accumulation.
func (m *CSR32) MulVecTrans(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("sparse: CSR32 MulVecTrans shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += float64(m.Val[k]) * xi
		}
	}
}

// MulMatCols computes the selected interleaved columns of Y = A·X for k
// columns stored row-major (x[i*k+c] = component i of column c), with
// float64 accumulation. cols selects the active columns (nil = all),
// matching CSR.MulMatCols; an unmasked k = 1 product runs MulVec itself.
func (m *CSR32) MulMatCols(x, y []float64, k int, cols []int) {
	if k == 1 && cols == nil {
		m.MulVec(x, y)
		return
	}
	if len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic(fmt.Sprintf("sparse: CSR32 MulMatCols shape mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, k, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		if cols == nil {
			for c := 0; c < k; c++ {
				y[i*k+c] = 0
			}
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				v := float64(m.Val[p])
				xo := m.ColIdx[p] * k
				for c := 0; c < k; c++ {
					y[i*k+c] += v * x[xo+c]
				}
			}
			continue
		}
		for _, c := range cols {
			y[i*k+c] = 0
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := float64(m.Val[p])
			xo := m.ColIdx[p] * k
			for _, c := range cols {
				y[i*k+c] += v * x[xo+c]
			}
		}
	}
}
