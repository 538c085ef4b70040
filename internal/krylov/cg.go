// Package krylov implements the Conjugate Gradient solver of the paper —
// serial and distributed-memory variants — together with the preconditioner
// application interfaces the FSAI family plugs into. The distributed solver
// mirrors the paper's MPI parallelization: the matrix and vectors are
// distributed by rows, SpMV performs a halo update, and dot products reduce
// globally. Each distributed recurrence is written once: the classic and
// fused loops are the batched (multi-RHS) loops of batch.go, which the
// scalar DistCG runs at k = 1, and one FP64 refinement loop over k columns
// (refined.go) serves DistCGRefined and DistCGBatchRefined.
package krylov

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// ErrNoConvergence is wrapped by solver errors when the iteration limit is
// reached before the residual tolerance.
var ErrNoConvergence = errors.New("krylov: no convergence within iteration limit")

// ErrCanceled is wrapped by solver errors when Options.Ctx is canceled (or
// its deadline passes) before the solve finishes. The partial Stats
// accumulated so far — iterations, residual, flops, trace — are still
// returned alongside the error.
var ErrCanceled = errors.New("krylov: solve canceled")

// ErrBreakdown is wrapped by solver errors when the CG recurrence breaks
// down: dᵀAd (or a recurrence denominator) is non-positive — the matrix or
// preconditioner is not SPD — or a residual/reduction scalar turns NaN/Inf.
// Every loop detects both conditions and stops immediately with the partial
// Stats accumulated so far, instead of iterating to MaxIter on poisoned
// arithmetic. In distributed solves the detection needs no extra collective:
// the scalars are Allreduce results, bitwise identical on every rank, so all
// ranks reach the same verdict at the same iteration.
var ErrBreakdown = errors.New("krylov: CG breakdown")

// badCurv reports a broken-down curvature dᵀAd: non-positive, NaN or Inf.
// (!(v > 0) is false for NaN, which is exactly the trap we want.)
func badCurv(v float64) bool { return !(v > 0) || math.IsInf(v, 1) }

// nonfinite reports NaN or ±Inf.
func nonfinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// canceled is the once-per-iteration cancellation check. Serial solves
// (c == nil) just poll the context. Distributed solves must exit their
// collectives in lockstep, so the decision is itself collective: each rank
// contributes its local context state to an AllreduceMax and every rank
// sees the same verdict — one rank observing cancellation stops all of
// them at the same iteration boundary. Passing a nil Ctx keeps the solve
// loops collective-free and byte-for-byte identical to their metered
// baselines; when a context is supplied, every rank of the solve must
// supply one.
func canceled(c *simmpi.Comm, ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	if c == nil {
		return ctx.Err() != nil
	}
	var flag int64
	if ctx.Err() != nil {
		flag = 1
	}
	return c.AllreduceMaxInt64(flag)[0] != 0
}

// Options controls a CG solve.
type Options struct {
	// Tol is the relative residual reduction target; the paper uses 1e-8
	// ("reduction of the initial residual by eight orders of magnitude").
	Tol float64
	// MaxIter caps iterations. Default 10·n.
	MaxIter int
	// RecordResiduals makes Stats.Residuals hold the relative residual
	// after every iteration (costs one float per iteration).
	RecordResiduals bool
	// Variant selects the communication structure of the distributed loop
	// (classic, classic-overlap, fused or pipelined). The zero value is
	// CGClassic. Ignored by the serial solver.
	Variant CGVariant
	// Work, when non-nil, supplies the iteration vectors so repeated solves
	// allocate nothing in steady state. In distributed runs each rank must
	// pass its own Workspace.
	Work *Workspace
	// Trace records per-iteration telemetry (relative residual, α/β and the
	// rank's communication deltas) into Stats.Trace. Off by default; when
	// off the solve paths do no telemetry work and allocate nothing extra.
	Trace bool
	// Ctx, when non-nil, cancels the solve: every loop checks it once per
	// iteration and returns an ErrCanceled-wrapped error with the partial
	// Stats accumulated so far. In distributed solves the check is a
	// collective (an extra AllreduceMax per iteration), so all ranks of a
	// solve must either pass a context or none — and the communication
	// metering of a context-free solve is unchanged.
	Ctx context.Context
	// Restart is the GMRES restart length m — the Krylov basis is rebuilt
	// from the true residual every m inner iterations. Zero means 30.
	// Ignored by the CG solvers.
	Restart int
	// ResidualReplaceEvery > 0 makes the pipelined loop recompute r = b − A·x
	// (and the dependent recurrence vectors) every that-many iterations,
	// arresting the rounding drift of the deeply rearranged recurrence on
	// ill-conditioned instances at the price of extra halo traffic — no
	// extra collectives. Zero (the default) disables replacement. Ignored by
	// the other variants, whose recurrences track the true residual closely.
	ResidualReplaceEvery int
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	return o
}

// Stats reports the outcome of a solve.
type Stats struct {
	Iterations  int
	Converged   bool
	RelResidual float64 // final ‖r‖/‖r₀‖
	Flops       int64   // this rank's flops (global flops in serial runs)
	// Refinements is the number of FP64 iterative-refinement steps a
	// mixed-precision solve performed; 0 for plain FP64 solves. Iterations
	// then counts the total inner iterations across all steps.
	Refinements int
	// Residuals holds the per-iteration relative residuals when
	// Options.RecordResiduals is set.
	Residuals []float64
	// Trace is the rank's per-iteration telemetry when Options.Trace is set,
	// nil otherwise.
	Trace *IterTrace
}

// Preconditioner applies z ← M·r in the serial solver. Implementations must
// tolerate aliasing-free distinct r and z slices of equal length.
type Preconditioner interface {
	Apply(r, z []float64, fc *vecops.FlopCounter)
}

// Identity is the "no preconditioner" preconditioner.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(r, z []float64, fc *vecops.FlopCounter) { copy(z, r) }

// Jacobi is diagonal scaling, the cheapest classical baseline.
type Jacobi struct{ InvDiag []float64 }

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("krylov: Jacobi: zero diagonal at %d", i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{InvDiag: inv}, nil
}

// Apply computes z = D⁻¹ r.
func (j *Jacobi) Apply(r, z []float64, fc *vecops.FlopCounter) {
	for i := range r {
		z[i] = r[i] * j.InvDiag[i]
	}
	fc.Add(int64(len(r)))
}

// Split applies the factorized approximate inverse z = Gᵀ(G·r), the
// preconditioning operation of FSAI/FSAIE/FSAIE-Comm in the serial solver.
type Split struct {
	G, GT *sparse.CSR
	w     []float64
}

// NewSplit builds the split preconditioner from the FSAI factor G (lower
// triangular) and its transpose.
func NewSplit(g, gt *sparse.CSR) *Split {
	return &Split{G: g, GT: gt, w: make([]float64, g.Rows)}
}

// Apply computes z = Gᵀ(G·r).
func (s *Split) Apply(r, z []float64, fc *vecops.FlopCounter) {
	s.G.MulVec(r, s.w)
	s.GT.MulVec(s.w, z)
	fc.Add(2 * int64(s.G.NNZ()+s.GT.NNZ()))
}

// matVec is the serial operator the CG loop needs: a matrix-vector product
// and an entry count for flop accounting. Both sparse.CSR and sparse.CSR32
// satisfy it, which is how the mixed-precision inner solves reuse the exact
// same loop.
type matVec interface {
	MulVec(x, y []float64)
	NNZ() int
}

// CG solves A x = b with preconditioned conjugate gradients, starting from
// the zero initial guess (as the paper's experiments do). x is overwritten
// with the solution; pass a zeroed slice.
func CG(a *sparse.CSR, b, x []float64, m Preconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	return cgSerial(a, a.Rows, b, x, m, opt, fc)
}

// cgSerial is the serial classic-CG loop over any matVec operator.
func cgSerial(a matVec, n int, b, x []float64, m Preconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	opt = opt.withDefaults(n)
	if m == nil {
		m = Identity{}
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	r, z, d, q := ws.take4(n)
	copy(r, b) // r = b - A·0 = b
	tr := newTracer(opt.Trace, nil)

	norm0 := vecops.Norm2(r, fc)
	if norm0 == 0 {
		vecops.Fill(x, 0)
		return finish(Stats{Iterations: 0, Converged: true, RelResidual: 0}, fc, tr), nil
	}
	m.Apply(r, z, fc)
	copy(d, z)
	rho := vecops.Dot(r, z, fc)
	tr.setup()

	st := Stats{}
	beta := 0.0 // the β that built this iteration's direction d
	for iter := 1; iter <= opt.MaxIter; iter++ {
		if canceled(nil, opt.Ctx) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d: %v", ErrCanceled, iter, opt.Ctx.Err())
		}
		a.MulVec(d, q)
		fc.Add(2 * int64(a.NNZ()))
		dq := vecops.Dot(d, q, fc)
		if badCurv(dq) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (dᵀAd = %g); matrix not SPD?", ErrBreakdown, iter, dq)
		}
		alpha := rho / dq
		vecops.Axpy(alpha, d, x, fc)
		vecops.Axpy(-alpha, q, r, fc)
		rnorm := vecops.Norm2(r, fc)
		if nonfinite(rnorm) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (‖r‖ = %g)", ErrBreakdown, iter, rnorm)
		}
		st.Iterations = iter
		st.RelResidual = rnorm / norm0
		if opt.RecordResiduals {
			st.Residuals = append(st.Residuals, st.RelResidual)
		}
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			tr.record(iter, st.RelResidual, alpha, beta)
			return finish(st, fc, tr), nil
		}
		m.Apply(r, z, fc)
		rhoNew := vecops.Dot(r, z, fc)
		if nonfinite(rhoNew) {
			tr.record(iter, st.RelResidual, alpha, beta)
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (rᵀMr = %g); preconditioner not finite?", ErrBreakdown, iter, rhoNew)
		}
		tr.record(iter, st.RelResidual, alpha, beta)
		beta = rhoNew / rho
		rho = rhoNew
		vecops.Xpay(z, beta, d, fc)
	}
	st = finish(st, fc, tr)
	return st, fmt.Errorf("%w: %d iterations, rel residual %.3e", ErrNoConvergence, st.Iterations, st.RelResidual)
}

// DistPreconditioner applies z ← M·r on a rank's local slice, communicating
// as needed. Implementations are collective: every rank must call Apply the
// same number of times.
type DistPreconditioner interface {
	Apply(c *simmpi.Comm, r, z []float64, fc *vecops.FlopCounter)
}

// DistIdentity is the distributed no-op preconditioner.
type DistIdentity struct{}

// Apply copies r into z (no communication).
func (DistIdentity) Apply(c *simmpi.Comm, r, z []float64, fc *vecops.FlopCounter) { copy(z, r) }

// DistSplit applies z = Gᵀ(G·r) with distributed G and Gᵀ, each with its own
// halo plan — the two preconditioning SpMVs of the paper.
type DistSplit struct {
	G, GT  *distmat.Op
	wG     *distmat.DistVec
	wGT    *distmat.DistVec
	interm []float64
}

// NewDistSplit builds the distributed split preconditioner from the local
// operators for G and Gᵀ.
func NewDistSplit(g, gt *distmat.Op) *DistSplit {
	return &DistSplit{
		G:      g,
		GT:     gt,
		wG:     distmat.NewDistVec(g.LZ),
		wGT:    distmat.NewDistVec(gt.LZ),
		interm: make([]float64, g.LZ.NLocal()),
	}
}

// Apply computes the local slice of z = Gᵀ(G·r). When the operators were
// built with the overlap view (distmat.WithOverlap), the two SpMVs run in
// the send-then-compute schedule; the result is bit-identical either way.
func (s *DistSplit) Apply(c *simmpi.Comm, r, z []float64, fc *vecops.FlopCounter) {
	mulDist(c, s.G, r, s.interm, s.wG, fc)
	mulDist(c, s.GT, s.interm, z, s.wGT, fc)
}

// mulDist runs one distributed SpMV, using the overlap schedule when the
// operator carries it.
func mulDist(c *simmpi.Comm, op *distmat.Op, x, y []float64, scratch *distmat.DistVec, fc *vecops.FlopCounter) {
	if ov := op.Overlap(); ov != nil {
		ov.MulVecOverlap(c, x, y, scratch, fc)
		return
	}
	op.MulVec(c, x, y, scratch, fc)
}

// DistCG solves A x = b in the distributed setting. Every rank passes its
// local slices of b and x (x zeroed); all ranks receive identical Stats.
// The operator op must be built over the same layout as b/x.
// Options.Variant selects the loop: CGClassic and CGClassicOverlap run the
// textbook recurrence (three reductions per iteration) with the blocking or
// overlapped SpMV schedule respectively and CGFused the fused-reduction
// recurrence — each the batched loop of DistCGBatch at k = 1 — while
// CGPipelined dispatches to DistCGPipelined.
func DistCG(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	if opt.Variant == CGPipelined {
		return DistCGPipelined(c, op, b, x, m, opt, fc)
	}
	if m == nil {
		m = DistIdentity{}
	}
	bs, err := distCG(c, op, b, x, batchOf{m}, 1, opt, fc, true)
	return bs.Cols[0], err
}
