package krylov

// Mixed-precision solves with FP64 iterative refinement. The inner CG loop
// runs against float32-valued operators — the FSAI factors (and the system
// matrix) store float32 values, products accumulate in float64, and halo
// exchanges travel at 4 bytes per value; an FP64 outer loop then recomputes
// the true residual r = b − A·x with the full-precision operator, solves the
// correction system A·d = r in mixed precision again, and updates x ← x + d.
// The iteration vectors are float64 throughout, so the inner loop's own
// recurrence residual keeps descending to the caller's tolerance even though
// the TRUE residual floors near the float32 representation limit. The inner
// tolerance is therefore adaptive: the first inner solve aims directly at the
// target, and each refinement afterwards only closes the gap the FP64
// recomputation still shows — typically one full-depth solve plus one short
// correction, so the total inner iteration count stays close to a pure FP64
// solve's. That, plus the outer loop's few full-width exchanges being a
// vanishing fraction of the hundreds of half-width inner iterations, is what
// the metered halo-byte-ratio tests pin (~0.5× of a pure FP64 solve).
//
// Every loop-control scalar of the outer loop (inner iteration counts,
// residual norms) is an Allreduce result, bitwise identical on all ranks,
// so the distributed variants stay collectively consistent with no extra
// communication beyond the residual recomputation itself.

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// pipelinedInnerReplaceEvery is the residual-replacement period forced on
// inner pipelined solves. The pipelined recurrences drift far faster under
// the float32 operator than the classic ones: past roughly five decades the
// recurrence residual decouples from the true one, and further iterations
// degrade the iterate until the drifted curvature breaks down. Periodically
// recomputing the residual against the (float32) operator keeps the
// recurrence honest, so one inner solve can aim as deep as the classic loop
// instead of restarting refinements against a drifting estimate.
const pipelinedInnerReplaceEvery = 25

// refineSafety is the margin each inner solve aims below its nominal
// requirement: the true FP64 residual exceeds the inner loop's recurrence
// residual by the float32 operator drift, so demanding an extra factor of
// two keeps the recomputed residual under the line the recurrence crossed.
// It is also the shallowest reduction a correction solve may target — every
// refinement must at least halve the residual or the stall guard fires.
const refineSafety = 0.5

// maxRefinements bounds the outer loop; with at least ~2 orders of magnitude
// per step any solve that needs this many refinements is stalled at the
// representation floor, not converging.
const maxRefinements = 20

// refineStallFactor: a refinement that shrinks the residual by less than
// this factor has hit the float32 floor — further refinements would re-run
// full inner solves for no progress.
const refineStallFactor = 0.5

// innerOptions derives the inner solve's options: the adaptive tolerance for
// the current outer residual, the remaining iteration budget, telemetry off
// (the outer tracer records at refinement granularity).
func innerOptions(opt Options, budget int, relres float64) Options {
	in := opt
	in.Trace = false
	in.RecordResiduals = false
	in.Tol = innerTol(opt.Tol, relres)
	if in.Variant == CGPipelined && in.ResidualReplaceEvery == 0 {
		in.ResidualReplaceEvery = pipelinedInnerReplaceEvery
	}
	in.MaxIter = budget
	return in
}

// innerTol targets the remaining gap: with the outer residual at relres and
// the target at tol, the correction solve needs a relative reduction of
// tol/relres on its own right-hand side, deepened by refineSafety to absorb
// the float32 drift between the inner recurrence residual and the true one.
// The first solve (relres = 1) thus aims just under tol itself — when the
// drift floor is far below tol it converges in a single refinement — and a
// near-miss refinement runs only the handful of iterations its small gap
// needs, instead of a fixed deep restart.
func innerTol(tol, relres float64) float64 {
	t := refineSafety * tol / relres
	if t > refineSafety {
		t = refineSafety
	}
	return t
}

// Split32 applies z = Gᵀ(G·r) with float32-valued factors and float64
// accumulation — the mixed-precision serial counterpart of Split.
type Split32 struct {
	G, GT *sparse.CSR32
	w     []float64
}

// NewSplit32 narrows the FP64 factors G and Gᵀ into the mixed-precision
// split preconditioner.
func NewSplit32(g, gt *sparse.CSR) *Split32 {
	return &Split32{G: sparse.NewCSR32(g), GT: sparse.NewCSR32(gt), w: make([]float64, g.Rows)}
}

// Apply computes z = Gᵀ(G·r).
func (s *Split32) Apply(r, z []float64, fc *vecops.FlopCounter) {
	s.G.MulVec(r, s.w)
	s.GT.MulVec(s.w, z)
	fc.Add(2 * int64(s.G.NNZ()+s.GT.NNZ()))
}

// SolveRefined solves A x = b in mixed precision with FP64 iterative
// refinement: inner CG solves run over the float32 narrowing of A with the
// given (typically float32-valued, e.g. Split32) preconditioner, the outer
// loop computes FP64 residuals with the full-precision A. x is overwritten;
// Stats.Refinements counts outer steps and Stats.Iterations the total inner
// iterations. Options.Tol/MaxIter apply to the outer residual and the total
// inner iteration budget respectively.
func SolveRefined(a *sparse.CSR, b, x []float64, m Preconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	n := a.Rows
	opt = opt.withDefaults(n)
	if m == nil {
		m = Identity{}
	}
	tr := newTracer(opt.Trace, nil)
	a32 := sparse.NewCSR32(a)
	r := make([]float64, n)
	d := make([]float64, n)
	copy(r, b)
	norm0 := vecops.Norm2(r, fc)
	if norm0 == 0 {
		vecops.Fill(x, 0)
		return finish(Stats{Converged: true}, fc, tr), nil
	}
	vecops.Fill(x, 0)
	tr.setup()

	st := Stats{RelResidual: 1}
	for st.Refinements < maxRefinements {
		if canceled(nil, opt.Ctx) {
			return finish(st, fc, tr), fmt.Errorf("%w during refinement %d: %v", ErrCanceled, st.Refinements+1, opt.Ctx.Err())
		}
		budget := opt.MaxIter - st.Iterations
		if budget <= 0 {
			break
		}
		vecops.Fill(d, 0)
		ist, ierr := cgSerial(a32, n, r, d, m, innerOptions(opt, budget, st.RelResidual), fc)
		st.Iterations += ist.Iterations
		st.Refinements++
		// An inner breakdown is expected near the float32 floor (the drifted
		// recurrences go indefinite before the recurrence residual reaches a
		// target below the floor): the correction accumulated so far is still
		// valid progress, so fold it in and let the FP64 residual decide. Only
		// a breakdown that produced no progress propagates as one (below).
		innerBroke := errors.Is(ierr, ErrBreakdown)
		if ierr != nil && !errors.Is(ierr, ErrNoConvergence) && !innerBroke {
			tr.refine(st.Refinements, ist.Iterations, st.RelResidual)
			return finish(st, fc, tr), fmt.Errorf("refinement %d inner solve: %w", st.Refinements, ierr)
		}
		vecops.Axpy(1, d, x, fc)
		// FP64 true residual: r = b − A·x with the full-precision operator.
		a.MulVec(x, r)
		fc.Add(2 * int64(a.NNZ()))
		for i := range r {
			r[i] = b[i] - r[i]
		}
		fc.Add(int64(n))
		prev := st.RelResidual
		rnorm := vecops.Norm2(r, fc)
		st.RelResidual = rnorm / norm0
		tr.refine(st.Refinements, ist.Iterations, st.RelResidual)
		if nonfinite(rnorm) {
			return finish(st, fc, tr), fmt.Errorf("%w at refinement %d (‖r‖ = %g)", ErrBreakdown, st.Refinements, rnorm)
		}
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			return finish(st, fc, tr), nil
		}
		if st.RelResidual >= prev*refineStallFactor {
			if innerBroke {
				return finish(st, fc, tr), fmt.Errorf("%w at refinement %d (inner solve broke down, rel residual %.3e)",
					ErrBreakdown, st.Refinements, st.RelResidual)
			}
			break // float32 floor: no further refinement can reach Tol
		}
	}
	st = finish(st, fc, tr)
	return st, fmt.Errorf("%w: %d refinements, %d inner iterations, rel residual %.3e",
		ErrNoConvergence, st.Refinements, st.Iterations, st.RelResidual)
}

// DistCGRefined solves A x = b distributed in mixed precision with FP64
// iterative refinement. aOuter is the full-precision operator used for the
// outer residual recomputation; aInner is the mixed-precision operator (same
// Localized view with the f32 kernel and half-width halo plan) the inner
// DistCG solves run against, under the variant chosen in opt. The
// preconditioner m should likewise be built over f32 operators. Every rank
// passes its local slices; all ranks receive identical Stats. It is the
// refinement loop of DistCGBatchRefined at k = 1.
func DistCGRefined(c *simmpi.Comm, aOuter, aInner *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	bs, err := refine(c, aOuter, b, x, 1, opt, fc, true, func(r, d []float64, in Options) (BatchStats, error) {
		st, err := DistCG(c, aInner, r, d, m, in, fc)
		return BatchStats{K: 1, Cols: []Stats{st}, Iterations: st.Iterations, Broken: []bool{errors.Is(err, ErrBreakdown)}}, err
	})
	return bs.Cols[0], err
}

// DistCGBatchRefined is the batched counterpart of DistCGRefined: k systems
// refined together, with the per-column freeze semantics of DistCGBatch.
// Columns whose FP64 residual reaches Tol (or breaks down, or stalls at the
// float32 floor) stop being refined — their residual columns are zeroed so
// subsequent inner solves freeze them immediately. BatchStats.Refinements
// counts outer steps; per-column Iterations accumulate inner iterations.
func DistCGBatchRefined(c *simmpi.Comm, aOuter, aInner *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	return refine(c, aOuter, b, x, k, opt, fc, false, func(r, d []float64, in Options) (BatchStats, error) {
		return DistCGBatch(c, aInner, r, d, m, k, in, fc)
	})
}

// refine is the one distributed FP64 refinement loop over k columns: inner
// solves the mixed-precision correction systems A·d = r, and the outer
// step recomputes r = b − A·x with the full-precision aOuter. Every
// loop-control scalar (inner iteration counts, residual norms, breakdown
// verdicts) derives from Allreduce results, so all ranks take the same
// branch at every step.
func refine(c *simmpi.Comm, aOuter *distmat.Op, b, x []float64, k int, opt Options, fc *vecops.FlopCounter, scalar bool,
	inner func(r, d []float64, in Options) (BatchStats, error)) (BatchStats, error) {
	ru := newRun(k, scalar, newTracer(opt.Trace, c), fc, make([]int, k))
	nl := aOuter.LZ.NLocal()
	opt = opt.withDefaults(int(c.AllreduceSumInt64(int64(nl))[0]))
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: refined CG local length %d/%d, want %d (k=%d)", len(b), len(x), nl*k, k))
	}
	r := make([]float64, nl*k)
	d := make([]float64, nl*k)
	norm0, tmp := make([]float64, k), make([]float64, k)
	scratch := distmat.NewBatchDistVec(aOuter.LZ, k)
	copy(r, b)
	vecops.Fill(x, 0)
	distmat.DotBatchDist(c, r, r, k, nil, norm0, fc)
	for _, col := range ru.sweep() {
		if norm0[col] = math.Sqrt(norm0[col]); norm0[col] == 0 {
			ru.bs.Cols[col].Converged = true
			continue
		}
		ru.bs.Cols[col].RelResidual = 1
		ru.keep(col)
	}
	if ru.done() {
		return ru.result(nil)
	}
	ru.tr.setup()

	for ru.bs.Refinements < maxRefinements && !ru.done() {
		if canceled(c, opt.Ctx) {
			return ru.result(fmt.Errorf("%w during refinement %d", ErrCanceled, ru.bs.Refinements+1))
		}
		budget := opt.MaxIter - ru.bs.Iterations
		if budget <= 0 {
			break
		}
		// Zero finished columns' residuals: the inner solve then freezes
		// them at setup (zero RHS) and their corrections stay zero. The
		// shared inner tolerance must serve the column farthest from the
		// target: tol/relres is tightest for the largest relres.
		maxRel := 0.0
		for col, j := 0, 0; col < k; col++ {
			if j < len(ru.active) && ru.active[j] == col {
				maxRel = max(maxRel, ru.bs.Cols[col].RelResidual)
				j++
				continue
			}
			for i := 0; i < nl; i++ {
				r[i*k+col] = 0
			}
		}
		vecops.Fill(d, 0)
		ibs, ierr := inner(r, d, innerOptions(opt, budget, maxRel))
		ru.bs.Iterations += ibs.Iterations
		ru.bs.Refinements++
		for _, col := range ru.active {
			ru.bs.Cols[col].Iterations += ibs.Cols[col].Iterations
		}
		// An inner breakdown is expected near the float32 floor (the drifted
		// recurrences go indefinite before the recurrence residual reaches a
		// target below the floor): the correction accumulated so far is still
		// valid progress, so it is folded in and the FP64 residual decides.
		// Only a breakdown that produced no progress marks the column broken.
		if ierr != nil && !errors.Is(ierr, ErrNoConvergence) && !errors.Is(ierr, ErrBreakdown) {
			ru.tr.refine(ru.bs.Refinements, ibs.Iterations, ru.bs.Cols[0].RelResidual)
			return ru.result(fmt.Errorf("refinement %d inner solve: %w", ru.bs.Refinements, ierr))
		}
		vecops.Axpy(1, d, x, fc)
		aOuter.MulMat(c, x, r, k, nil, scratch, fc)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		fc.Add(int64(nl * k))
		distmat.DotBatchDist(c, r, r, k, nil, tmp, fc)
		for _, col := range ru.sweep() {
			st := &ru.bs.Cols[col]
			prev := st.RelResidual
			st.RelResidual = math.Sqrt(tmp[col]) / norm0[col]
			ru.tr.refine(ru.bs.Refinements, ibs.Iterations, st.RelResidual)
			switch {
			case nonfinite(tmp[col]):
				ru.broke(col, fmt.Errorf("%w at refinement %d (‖r‖ = %g)", ErrBreakdown, ru.bs.Refinements, math.Sqrt(tmp[col])))
			case st.RelResidual <= opt.Tol:
				st.Converged = true
			case st.RelResidual < prev*refineStallFactor:
				ru.keep(col)
			case ibs.Broken[col]:
				ru.broke(col, fmt.Errorf("%w at refinement %d (inner solve broke down, rel residual %.3e)",
					ErrBreakdown, ru.bs.Refinements, st.RelResidual))
			}
			// Otherwise the column stalled at the float32 floor: no further
			// refinement can reach Tol.
		}
	}
	return ru.result(nil)
}
