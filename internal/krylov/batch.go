package krylov

// Batched (block multi-RHS) Conjugate Gradient, and the one loop per
// recurrence behind every classic and fused CG solve. The batch solves the
// k systems A·x_c = b_c with k INDEPENDENT per-column recurrences — each
// column keeps its own α/β/ρ scalars — driven through the block kernels:
// one SpMM per iteration instead of k SpMVs, one k-wide halo update per
// neighbour instead of k, and one k-wide AllreduceSum per reduction point
// instead of k scalar ones. Because simmpi's collectives reduce
// element-wise in deterministic rank order and every block kernel
// accumulates each column in its scalar counterpart's index order, column
// c of a batched solve is bit-identical to a scalar solve of column c —
// regardless of what the other columns are doing. That property (pinned by
// the differential tests) is why this is a throughput optimization and not
// a different numerical method: it is exactly k scalar CG solves sharing
// their memory traffic and message envelopes.
//
// The scalar solve is the k = 1 case of the same loops: DistCG runs
// cgClassic or cgFused at k = 1, where every unmasked block kernel runs
// its scalar counterpart (sparse.CSR.MulMat and vecops.DotBatch call
// MulVec and Dot), so the batched loop costs the scalar solve nothing.
// Only a scalar solve records Options.Trace and Options.RecordResiduals
// and drives the overlap SpMV schedule of classic-overlap and fused; the
// exported batched entry points reject the telemetry options (per-column
// traces would multiply telemetry k-fold) and the overlap and pipelined
// variants.
//
// Columns that converge are frozen: they leave the active mask, stop
// costing flops in every kernel, and their x column is never touched
// again. Collectives stay k wide (frozen columns contribute exact zeros)
// and halo payloads stay k wide, so the communication *schedule* — message
// count and collective call count per iteration — never depends on the
// convergence state. A column whose dᵀAd turns non-positive (the scalar
// loop's SPD breakdown) is frozen as broken instead of failing the whole
// batch. With a caller-held Workspace an iteration allocates nothing; only
// the returned BatchStats slices are allocated per solve.

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// ErrBatchVariant is returned when a batched solve is asked for a CG
// variant other than classic or fused. The overlap and pipelined schedules
// hide latency that the batch already amortizes across columns; supporting
// them would complicate the masked recurrences for no modeled gain.
var ErrBatchVariant = errors.New("krylov: batched solve supports the classic and fused variants only")

// BatchPreconditioner applies z_c ← M·r_c on the active columns of
// interleaved n×k blocks in the serial batched solver. Masked columns of z
// must be left untouched.
type BatchPreconditioner interface {
	ApplyBatch(r, z []float64, k int, cols []int, fc *vecops.FlopCounter)
}

// DistBatchPreconditioner is the distributed counterpart, applied to a
// rank's local interleaved block. Collective: every rank calls it the same
// number of times with the same mask.
type DistBatchPreconditioner interface {
	ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter)
}

// batchOf runs a scalar DistPreconditioner as the batched one of a k = 1
// solve, where the mask is always nil.
type batchOf struct{ DistPreconditioner }

func (m batchOf) ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	m.Apply(c, r, z, fc)
}

// IdentityBatch is the no-op batched preconditioner.
type IdentityBatch struct{}

// ApplyBatch copies the active columns of r into z.
func (IdentityBatch) ApplyBatch(r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	if cols == nil {
		copy(z, r)
		return
	}
	for i := 0; i < len(r)/k; i++ {
		for _, c := range cols {
			z[i*k+c] = r[i*k+c]
		}
	}
}

// DistSplitBatch applies z = Gᵀ(G·r) to interleaved blocks with
// distributed G and Gᵀ — the batched counterpart of DistSplit. Each of the
// two SpMMs performs one k-wide halo update (one message per neighbour).
type DistSplitBatch struct {
	G, GT   *distmat.Op
	wG, wGT *distmat.BatchDistVec
	interm  []float64
	k       int
}

// NewDistSplitBatch builds the batched distributed split preconditioner
// from the local operators for G and Gᵀ, for batches of size k.
func NewDistSplitBatch(g, gt *distmat.Op, k int) *DistSplitBatch {
	return &DistSplitBatch{
		G:      g,
		GT:     gt,
		wG:     distmat.NewBatchDistVec(g.LZ, k),
		wGT:    distmat.NewBatchDistVec(gt.LZ, k),
		interm: make([]float64, g.LZ.NLocal()*k),
		k:      k,
	}
}

// ApplyBatch computes the local block of z = Gᵀ(G·r) on the active columns.
func (s *DistSplitBatch) ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	if k != s.k {
		panic(fmt.Sprintf("krylov: DistSplitBatch batch size %d, prepared for %d", k, s.k))
	}
	s.G.MulMat(c, r, s.interm, k, cols, s.wG, fc)
	s.GT.MulMat(c, s.interm, z, k, cols, s.wGT, fc)
}

// BatchStats reports the outcome of a batched solve: one Stats per column
// (Iterations, Converged, RelResidual — exactly what the scalar solve of
// that column would report) plus batch-level aggregates. Per-column Flops
// are not split out; the caller's FlopCounter holds the batch total.
type BatchStats struct {
	K    int
	Cols []Stats
	// Iterations is the number of iterations the batch loop ran — the
	// maximum over columns, which is what the batch's communication bill
	// scales with.
	Iterations int
	// Broken marks columns frozen by an SPD-breakdown (dᵀAd ≤ 0 or a
	// non-finite recurrence scalar); their Stats hold the last completed
	// iteration and Converged is false.
	Broken []bool
	// Refinements is the number of FP64 iterative-refinement steps a
	// mixed-precision batched solve performed; 0 for plain FP64 solves.
	Refinements int
}

// run is the per-solve state of a batched loop: the stats being built and
// the ascending list of still-active columns. scalar marks the k = 1 solve
// behind DistCG and DistCGRefined, which reports its column's own failure
// (cause) and telemetry (tr) as a scalar Stats.
type run struct {
	bs     BatchStats
	k      int
	active []int
	scalar bool
	cause  error
	tr     *tracer
	fc     *vecops.FlopCounter
}

func newRun(k int, scalar bool, tr *tracer, fc *vecops.FlopCounter, active []int) run {
	for c := range active {
		active[c] = c
	}
	return run{bs: BatchStats{K: k, Cols: make([]Stats, k), Broken: make([]bool, k)},
		k: k, active: active, scalar: scalar, tr: tr, fc: fc}
}

// mask returns the kernel mask: nil (the fast path) while every column is
// active, the ascending active list otherwise.
func (ru *run) mask() []int {
	if len(ru.active) == ru.k {
		return nil
	}
	return ru.active
}

func (ru *run) done() bool { return len(ru.active) == 0 }

// sweep empties the active list and returns the old one for a pass that
// re-adds each surviving column with keep. The list is rebuilt in place:
// keep writes at most where sweep's caller has already read.
func (ru *run) sweep() []int {
	act := ru.active
	ru.active = act[:0]
	return act
}

func (ru *run) keep(col int) { ru.active = append(ru.active, col) }

// broke marks col broken down; the first cause is the error of a scalar
// solve.
func (ru *run) broke(col int, cause error) {
	ru.bs.Broken[col] = true
	if ru.cause == nil {
		ru.cause = cause
	}
}

// advance stores column col's residual after iteration iter and reports
// whether it converged.
func (ru *run) advance(col, iter int, relres float64, opt Options) bool {
	st := &ru.bs.Cols[col]
	st.Iterations, st.RelResidual = iter, relres
	if opt.RecordResiduals {
		st.Residuals = append(st.Residuals, relres)
	}
	st.Converged = relres <= opt.Tol
	return st.Converged
}

// result assembles a loop's (stats, error) pair; stop is the error that
// cut the loop short (cancellation, a failed inner solve), nil otherwise.
func (ru *run) result(stop error) (BatchStats, error) {
	bs := ru.bs
	if ru.scalar {
		st := &bs.Cols[0]
		st.Flops, st.Trace, st.Refinements = ru.fc.Count(), ru.tr.trace(), bs.Refinements
		switch {
		case stop != nil:
			return bs, stop
		case ru.cause != nil:
			return bs, ru.cause
		case st.Converged:
			return bs, nil
		case bs.Refinements > 0:
			return bs, fmt.Errorf("%w: %d refinements, %d inner iterations, rel residual %.3e",
				ErrNoConvergence, bs.Refinements, st.Iterations, st.RelResidual)
		}
		return bs, fmt.Errorf("%w: %d iterations, rel residual %.3e", ErrNoConvergence, st.Iterations, st.RelResidual)
	}
	if stop != nil {
		return bs, stop
	}
	unconverged, broken := 0, 0
	for c := range bs.Cols {
		if !bs.Cols[c].Converged {
			unconverged++
		}
		if bs.Broken[c] {
			broken++
		}
	}
	switch {
	case unconverged == 0:
		return bs, nil
	case broken > 0:
		// Both sentinels match: the batch failed to converge, and at least
		// one column did so by breaking down rather than running out of
		// iterations.
		return bs, fmt.Errorf("%w: %w: %d of %d columns unconverged (%d broken down) after %d iterations",
			ErrNoConvergence, ErrBreakdown, unconverged, bs.K, broken, bs.Iterations)
	}
	return bs, fmt.Errorf("%w: %d of %d columns unconverged (%d broken down) after %d iterations",
		ErrNoConvergence, unconverged, bs.K, broken, bs.Iterations)
}

// checkBatchOptions validates the batch size, variant and telemetry options
// of the exported batched entry points.
func checkBatchOptions(k int, opt Options) error {
	if k < 1 {
		return fmt.Errorf("krylov: batch size %d < 1", k)
	}
	if opt.Trace || opt.RecordResiduals {
		return errors.New("krylov: batched solve records no per-iteration telemetry (Trace, RecordResiduals); use a scalar solve")
	}
	switch opt.Variant {
	case CGClassic, CGFused:
		return nil
	default:
		return fmt.Errorf("%w (got %s)", ErrBatchVariant, opt.Variant)
	}
}

// system is the operator side of one batched loop: serial (c == nil, with
// a and sm) or distributed (op and dm). ov, set only at k = 1 for
// classic-overlap and fused, runs the SpMV in the send-then-compute
// schedule.
type system struct {
	c   *simmpi.Comm
	a   *sparse.CSR
	sm  BatchPreconditioner
	op  *distmat.Op
	dm  DistBatchPreconditioner
	ov  *distmat.OverlapOp
	vec *distmat.DistVec
	blk *distmat.BatchDistVec
	fc  *vecops.FlopCounter
}

// mul computes y = A·x on the active columns.
func (s *system) mul(x, y []float64, k int, cols []int) {
	switch {
	case s.c == nil:
		s.a.MulMatCols(x, y, k, cols)
		nc := k
		if cols != nil {
			nc = len(cols)
		}
		s.fc.Add(2 * int64(s.a.NNZ()) * int64(nc))
	case s.ov != nil:
		s.ov.MulVecOverlap(s.c, x, y, s.vec, s.fc)
	default:
		s.op.MulMat(s.c, x, y, k, cols, s.blk, s.fc)
	}
}

// apply computes z = M·r on the active columns.
func (s *system) apply(r, z []float64, k int, cols []int) {
	if s.c == nil {
		s.sm.ApplyBatch(r, z, k, cols, s.fc)
		return
	}
	s.dm.ApplyBatch(s.c, r, z, k, cols, s.fc)
}

// dot writes the (globally reduced) per-column dot products into out.
func (s *system) dot(x, y []float64, k int, cols []int, out []float64) {
	if s.c == nil {
		vecops.DotBatch(x, y, k, cols, out, s.fc)
		return
	}
	distmat.DotBatchDist(s.c, x, y, k, cols, out, s.fc)
}

// open starts a loop over s: the tracer (before any collective, so its
// setup delta covers the whole solve), the global size and option defaults,
// the block length check, the workspace and its halo scratch, and a run
// with every column active. It returns the run, the workspace and the local
// row count.
func (s *system) open(b, x []float64, k int, opt *Options, scalar bool) (run, *Workspace, int) {
	tr := newTracer(opt.Trace, s.c)
	var n int
	if s.c == nil {
		n = s.a.Rows
		*opt = opt.withDefaults(n)
	} else {
		n = s.op.LZ.NLocal()
		*opt = opt.withDefaults(int(s.c.AllreduceSumInt64(int64(n))[0]))
	}
	if len(b) != n*k || len(x) != n*k {
		panic(fmt.Sprintf("krylov: CG local length %d/%d, want %d (k=%d)", len(b), len(x), n*k, k))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	switch {
	case s.ov != nil:
		s.vec = ws.distScratch(s.op.LZ)
	case s.c != nil:
		s.blk = ws.batchScratch(s.op.LZ, k)
	}
	return newRun(k, scalar, tr, s.fc, ws.takeActive(k)), ws, n
}

// CGBatch solves the k systems A·x_c = b_c serially with the batched
// classic PCG recurrence, from zero initial guesses. b and x are n×k
// row-major interleaved blocks; x is overwritten. Column c of the result
// is bit-identical to CG on (b column c). The fused variant is accepted
// but runs the classic recurrence serially (the fused rearrangement only
// changes communication, which a serial solve has none of).
func CGBatch(a *sparse.CSR, b, x []float64, m BatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	if m == nil {
		m = IdentityBatch{}
	}
	return cgClassic(&system{a: a, sm: m, fc: fc}, b, x, k, opt, false)
}

// DistCGBatch solves the k distributed systems A·x_c = b_c with the
// batched CG recurrence. Every rank passes its local interleaved blocks of
// b and x (x zeroed); all ranks receive identical BatchStats. Per
// iteration the classic variant performs one batched SpMM (one k-wide halo
// message per neighbour) and three k-wide AllreduceSums — the same
// collective CALL count as one scalar solve, serving all k columns; the
// fused variant performs one AllreduceSum of 3k values. Column c of the
// result is bit-identical to DistCG on column c alone, which also means
// the batch's communication bill equals one scalar solve's in messages and
// collective calls, and k× in halo bytes (the metered tests pin all
// three). Variants other than classic and fused return ErrBatchVariant.
func DistCGBatch(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	return distCG(c, op, b, x, m, k, opt, fc, false)
}

// distCG runs the distributed classic or fused loop. The k = 1 scalar solve
// of classic-overlap and fused drives its SpMV through the overlap view.
func distCG(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter, scalar bool) (BatchStats, error) {
	s := &system{c: c, op: op, dm: m, fc: fc}
	if k == 1 && (opt.Variant == CGClassicOverlap || opt.Variant == CGFused) {
		s.ov = op.EnsureOverlap()
	}
	if opt.Variant == CGFused {
		return cgFused(s, b, x, k, opt, scalar)
	}
	return cgClassic(s, b, x, k, opt, scalar)
}

// cgClassic is the textbook PCG loop over k columns: one SpMV, three
// reductions (dᵀq, ‖r‖², rᵀz) and one preconditioner apply per iteration.
func cgClassic(s *system, b, x []float64, k int, opt Options, scalar bool) (BatchStats, error) {
	ru, ws, n := s.open(b, x, k, &opt, scalar)
	r, z, d, q := ws.take4(n * k)
	kw := ws.takeScalars(6 * k)
	norm0, rho, alpha, negAlpha, beta, tmp := kw[:k], kw[k:2*k], kw[2*k:3*k], kw[3*k:4*k], kw[4*k:5*k], kw[5*k:]
	copy(r, b)

	s.dot(r, r, k, nil, tmp)
	for _, col := range ru.sweep() {
		if norm0[col] = math.Sqrt(tmp[col]); norm0[col] == 0 {
			for i := 0; i < n; i++ {
				x[i*k+col] = 0
			}
			ru.bs.Cols[col].Converged = true
			continue
		}
		ru.keep(col)
	}
	if ru.done() {
		return ru.result(nil)
	}
	s.apply(r, z, k, ru.mask())
	copy(d, z)
	s.dot(r, z, k, ru.mask(), rho)
	ru.tr.setup()

	// beta is the β that built each column's current direction d (0 on the
	// first iteration); the trace records it next to α.
	for iter := 1; iter <= opt.MaxIter && !ru.done(); iter++ {
		if canceled(s.c, opt.Ctx) {
			return ru.result(fmt.Errorf("%w at iteration %d", ErrCanceled, iter))
		}
		s.mul(d, q, k, ru.mask())
		s.dot(d, q, k, ru.mask(), tmp)
		for _, col := range ru.sweep() {
			// tmp holds Allreduce results, identical on every rank, so the
			// per-column freeze decisions are collective by construction.
			if badCurv(tmp[col]) {
				ru.broke(col, fmt.Errorf("%w at iteration %d (dᵀAd = %g); matrix not SPD?", ErrBreakdown, iter, tmp[col]))
				continue
			}
			alpha[col] = rho[col] / tmp[col]
			negAlpha[col] = -alpha[col]
			ru.keep(col)
		}
		if ru.done() {
			break
		}
		vecops.AxpyBatch(alpha, d, x, k, ru.mask(), s.fc)
		vecops.AxpyBatch(negAlpha, q, r, k, ru.mask(), s.fc)
		s.dot(r, r, k, ru.mask(), tmp)
		ru.bs.Iterations = iter
		for _, col := range ru.sweep() {
			rnorm := math.Sqrt(tmp[col])
			if nonfinite(rnorm) {
				ru.broke(col, fmt.Errorf("%w at iteration %d (‖r‖ = %g)", ErrBreakdown, iter, rnorm))
				continue
			}
			if ru.advance(col, iter, rnorm/norm0[col], opt) {
				ru.tr.record(iter, ru.bs.Cols[col].RelResidual, alpha[col], beta[col])
				continue
			}
			ru.keep(col)
		}
		if ru.done() {
			break
		}
		s.apply(r, z, k, ru.mask())
		s.dot(r, z, k, ru.mask(), tmp)
		for _, col := range ru.sweep() {
			ru.tr.record(iter, ru.bs.Cols[col].RelResidual, alpha[col], beta[col])
			if nonfinite(tmp[col]) {
				ru.broke(col, fmt.Errorf("%w at iteration %d (rᵀMr = %g); preconditioner not finite?", ErrBreakdown, iter, tmp[col]))
				continue
			}
			beta[col] = tmp[col] / rho[col]
			rho[col] = tmp[col]
			ru.keep(col)
		}
		vecops.XpayBatch(z, beta, d, k, ru.mask(), s.fc)
	}
	return ru.result(nil)
}

// cgFused is the fused-reduction (Chronopoulos–Gear) PCG loop over k
// distributed columns. The classic loop's three reductions per iteration
// are rearranged so all three scalars — rᵀu, wᵀu and ‖r‖² — are computed
// back to back and reduced in ONE AllreduceSum of 3k values, with halo
// traffic byte-identical to the classic loop and unchanged neighbour sets
// (asserted by the metered tests). The vector updates run as the fused
// one-pass kernels (FusedCGUpdateBatch, Dot2Batch), so each iteration
// streams every vector once. In exact arithmetic the iterates equal
// classic PCG's; in floating point the rearranged scalar recurrences
//
//	β_i = γ_i/γ_{i−1},  α_i = γ_i/(δ_i − β_i·γ_i/α_{i−1})
//
// round differently, so iteration counts may shift by ±1.
func cgFused(s *system, b, x []float64, k int, opt Options, scalar bool) (BatchStats, error) {
	ru, ws, n := s.open(b, x, k, &opt, scalar)
	r, u, w, p, sv := ws.take5(n * k)
	kw := ws.takeScalars(10 * k)
	norm0, gamma, alpha, beta := kw[:k], kw[k:2*k], kw[2*k:3*k], kw[3*k:4*k]
	gammaL, deltaL, rrL, g := kw[4*k:5*k], kw[5*k:6*k], kw[6*k:7*k], kw[7*k:]
	copy(r, b)
	vecops.Fill(p, 0)
	vecops.Fill(sv, 0)

	// Setup pass over every column: the zero-RHS and non-SPD checks come out
	// of the first collective.
	s.apply(r, u, k, nil)
	s.mul(u, w, k, nil)
	vecops.Dot2Batch(r, u, w, k, nil, gammaL, deltaL, s.fc)
	vecops.DotBatch(r, r, k, nil, rrL, s.fc)
	copy(g[:k], gammaL)
	copy(g[k:2*k], deltaL)
	copy(g[2*k:], rrL)
	gr := s.c.AllreduceSum(g...)
	for _, col := range ru.sweep() {
		ga, de, rr := gr[col], gr[k+col], gr[2*k+col]
		if rr == 0 {
			for i := 0; i < n; i++ {
				x[i*k+col] = 0
			}
			ru.bs.Cols[col].Converged = true
			continue
		}
		norm0[col] = math.Sqrt(rr)
		if badCurv(ga) || badCurv(de) {
			ru.broke(col, fmt.Errorf("%w at fused CG setup (rᵀMr = %g, uᵀAu = %g); matrix or preconditioner not SPD?", ErrBreakdown, ga, de))
			continue
		}
		gamma[col], alpha[col], beta[col] = ga, ga/de, 0
		ru.keep(col)
	}
	if ru.done() {
		return ru.result(nil)
	}
	ru.tr.setup()

	for iter := 1; iter <= opt.MaxIter && !ru.done(); iter++ {
		if canceled(s.c, opt.Ctx) {
			return ru.result(fmt.Errorf("%w at iteration %d", ErrCanceled, iter))
		}
		// p ← u + βp, s ← w + βs, x ← x + αp, r ← r − αs, and the local
		// ‖r‖² contribution, all in one sweep.
		vecops.FusedCGUpdateBatch(alpha, beta, u, w, p, sv, x, r, k, ru.mask(), rrL, s.fc)
		s.apply(r, u, k, ru.mask())
		s.mul(u, w, k, ru.mask())
		vecops.Dot2Batch(r, u, w, k, ru.mask(), gammaL, deltaL, s.fc)
		// The single collective of the iteration. Frozen columns contribute
		// exact zeros so it stays a fixed 3k values.
		vecops.Fill(g, 0)
		for _, col := range ru.active {
			g[col], g[k+col], g[2*k+col] = gammaL[col], deltaL[col], rrL[col]
		}
		gr := s.c.AllreduceSum(g...)
		ru.bs.Iterations = iter
		for _, col := range ru.sweep() {
			gammaNew, de, rr := gr[col], gr[k+col], gr[2*k+col]
			if nonfinite(rr) || nonfinite(gammaNew) {
				ru.broke(col, fmt.Errorf("%w at iteration %d (‖r‖² = %g, rᵀMr = %g)", ErrBreakdown, iter, rr, gammaNew))
				continue
			}
			converged := ru.advance(col, iter, math.Sqrt(rr)/norm0[col], opt)
			// Record before α/β advance: the pass's traffic is complete here,
			// and α/β are still the scalars of the update that produced this
			// iteration's residual.
			ru.tr.record(iter, ru.bs.Cols[col].RelResidual, alpha[col], beta[col])
			if converged {
				continue
			}
			betaNew := gammaNew / gamma[col]
			denom := de - betaNew*gammaNew/alpha[col]
			if badCurv(denom) {
				ru.broke(col, fmt.Errorf("%w at iteration %d (recurrence denominator %g); matrix not SPD?", ErrBreakdown, iter, denom))
				continue
			}
			beta[col], alpha[col], gamma[col] = betaNew, gammaNew/denom, gammaNew
			ru.keep(col)
		}
	}
	return ru.result(nil)
}
