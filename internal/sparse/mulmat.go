package sparse

// Sparse matrix times a block of vectors (SpMM). The k right-hand vectors
// are stored row-major interleaved — X[i*k+c] is component i of vector c —
// so every stored matrix entry touches k contiguous values of X. That
// layout is the whole point: one pass over the matrix serves all k vectors,
// turning the memory-bound SpMV into a kernel with k-fold reuse of every
// fetched (ColIdx, Val) pair (the bandwidth-locality argument behind the
// batched multi-RHS solve path). Each column's row sum accumulates in the
// same left-to-right entry order as MulVec, so column c of MulMat is
// bit-identical to MulVec on column c alone — the property the batched
// solver's differential tests pin.

import (
	"fmt"

	"fsaicomm/internal/parallel"
)

// MulMat computes Y = A·X for k interleaved vectors: len(x) = Cols·k,
// len(y) = Rows·k, both row-major (x[i*k+c]). Column c of the result is
// bit-identical to MulVec on the de-interleaved column c. k = 1 runs MulVec
// itself on the same storage.
func (m *CSR) MulMat(x, y []float64, k int) {
	if k == 1 {
		m.MulVec(x, y)
		return
	}
	checkMulMat(m, x, y, k, "MulMat")
	for i := 0; i < m.Rows; i++ {
		acc := y[i*k : (i+1)*k]
		for c := range acc {
			acc[c] = 0
		}
		for e := m.RowPtr[i]; e < m.RowPtr[i+1]; e++ {
			v := m.Val[e]
			xs := x[m.ColIdx[e]*k : m.ColIdx[e]*k+k]
			for c, xv := range xs {
				acc[c] += v * xv
			}
		}
	}
}

// MulMatCols computes the listed columns of Y = A·X, leaving the other
// columns of y untouched. cols holds strictly ascending column indices in
// [0, k). This is the convergence-masking kernel of the batched CG loop:
// columns that have converged stop costing flops while the survivors keep
// their exact scalar-solve arithmetic. A nil cols computes every column
// (same as MulMat).
func (m *CSR) MulMatCols(x, y []float64, k int, cols []int) {
	if cols == nil {
		m.MulMat(x, y, k)
		return
	}
	checkMulMat(m, x, y, k, "MulMatCols")
	for i := 0; i < m.Rows; i++ {
		acc := y[i*k : (i+1)*k]
		for _, c := range cols {
			acc[c] = 0
		}
		for e := m.RowPtr[i]; e < m.RowPtr[i+1]; e++ {
			v := m.Val[e]
			xs := x[m.ColIdx[e]*k : m.ColIdx[e]*k+k]
			for _, c := range cols {
				acc[c] += v * xs[c]
			}
		}
	}
}

// MulMatParallel computes Y = A·X with rows partitioned across workers
// (<= 0 selects GOMAXPROCS). Workers write disjoint row blocks of y and
// every per-column row sum keeps MulVec's left-to-right order, so the
// result is bit-identical to MulMat for any worker count.
func (m *CSR) MulMatParallel(x, y []float64, k, workers int) {
	checkMulMat(m, x, y, k, "MulMatParallel")
	_ = parallel.For(workers, m.Rows, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			acc := y[i*k : (i+1)*k]
			for c := range acc {
				acc[c] = 0
			}
			for e := m.RowPtr[i]; e < m.RowPtr[i+1]; e++ {
				v := m.Val[e]
				xs := x[m.ColIdx[e]*k : m.ColIdx[e]*k+k]
				for c, xv := range xs {
					acc[c] += v * xv
				}
			}
		}
		return nil
	})
}

func checkMulMat(m *CSR, x, y []float64, k int, name string) {
	if k < 1 {
		panic(fmt.Sprintf("sparse: %s batch size %d < 1", name, k))
	}
	if len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic(fmt.Sprintf("sparse: %s shape mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			name, m.Rows, m.Cols, k, len(x), len(y)))
	}
}
