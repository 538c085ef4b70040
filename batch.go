package fsaicomm

// Batched (multi-RHS) facade entry points. A batched solve runs one
// distributed CG loop over k right-hand sides at once: every halo update
// sends one coalesced message per neighbour (k× fewer messages than k
// scalar solves, the same bytes) and every reduction point is one k-wide
// collective (k× fewer collective calls). Per column the arithmetic is
// bit-identical to the scalar solve of that column alone — the batch buys
// throughput, never answers.

import (
	"context"
	"fmt"
	"time"

	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
)

// ErrBatchVariant is wrapped by the error batched solves return when the
// selected CG variant has no batched loop (only CGClassic and CGFused do;
// the overlap and pipelined schedules exist to hide latency the batch
// already amortizes).
var ErrBatchVariant = krylov.ErrBatchVariant

// ColResult is one column's outcome of a batched solve.
type ColResult struct {
	// X is the column's solution vector (original row order).
	X []float64
	// Iterations, Converged and RelResidual report the column's own CG
	// recurrence: a column freezes the moment it converges, so columns
	// generally stop at different iteration counts.
	Iterations  int
	Converged   bool
	RelResidual float64
	// Broken reports a per-column breakdown (indefinite system, NaN): the
	// column froze without converging while its batch mates continued.
	Broken bool
}

// BatchResult reports a batched multi-RHS solve.
type BatchResult struct {
	// Cols holds the per-column outcomes, in the caller's RHS order.
	Cols []ColResult
	// Iterations is the batch loop's iteration count — the maximum over
	// columns, which is what the communication schedule paid for.
	Iterations int
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision (Options.Precision FP32) batched solve; zero for FP64.
	Refinements int
	// Ranks is the number of processes used.
	Ranks int
	// PctNNZIncrease and ImbalanceIndex are the build metrics (see Result).
	PctNNZIncrease float64
	ImbalanceIndex float64
	// CommBytes, CommMessages, CollectiveCalls and CollectiveBytes are the
	// aggregate solve-phase communication totals over all ranks. Divide by
	// len(Cols) for the per-RHS amortized cost the batch exists to shrink.
	CommBytes       int64
	CommMessages    int64
	CollectiveCalls int64
	CollectiveBytes int64
	// IntraNodeBytes/IntraNodeMessages and InterNodeBytes/InterNodeMessages
	// split the point-to-point totals by the two-level topology (see
	// Result); zero under the flat default except InterNode* == Comm*.
	IntraNodeBytes    int64
	IntraNodeMessages int64
	InterNodeBytes    int64
	InterNodeMessages int64
	// SetupTime and SolveTime are wall-clock phase durations (SetupTime runs
	// from entry, partition included, and is 0 for Prepared.SolveBatch,
	// whose setup was paid in Prepare).
	SetupTime, SolveTime time.Duration
}

// AllConverged reports whether every column converged.
func (r *BatchResult) AllConverged() bool {
	for i := range r.Cols {
		if !r.Cols[i].Converged {
			return false
		}
	}
	return true
}

// checkBatch validates what a batched solve asks beyond a scalar one: a CG
// variant with a batched loop, the CG family, no trace (BatchResult has no
// trace field, so a traced batch would drop it silently), and a
// rectangular, finite RHS block.
func checkBatch(so SolveOptions, solver Solver, rhs [][]float64, n int) error {
	switch so.CGVariant {
	case CGClassic, CGFused:
	default:
		return fmt.Errorf("%w: variant %d (batched solves support classic and fused)", ErrBatchVariant, int(so.CGVariant))
	}
	if solver == SolverGMRES {
		return fmt.Errorf("%w: batched solves support the CG family only (GMRES solves one right-hand side at a time)", ErrInvalidOptions)
	}
	if so.Trace {
		return fmt.Errorf("%w: batched solves record no per-iteration trace (solve one right-hand side to trace it)", ErrInvalidOptions)
	}
	if len(rhs) < 1 {
		return fmt.Errorf("fsaicomm: batch needs at least 1 right-hand side")
	}
	for c := range rhs {
		if len(rhs[c]) != n {
			return fmt.Errorf("fsaicomm: rhs column %d length %d, want %d", c, len(rhs[c]), n)
		}
		if err := checkFiniteRHS(rhs[c]); err != nil {
			return fmt.Errorf("rhs column %d: %w", c, err)
		}
	}
	return nil
}

// packPermuted interleaves the RHS columns row-major in partition order:
// pb[p*k+c] = rhs[c][old row of permuted row p]. A single column is simply
// the permuted vector.
func packPermuted(rhs [][]float64, oldToNew []int) []float64 {
	k := len(rhs)
	pb := make([]float64, len(oldToNew)*k)
	for c, col := range rhs {
		for i, v := range col {
			pb[oldToNew[i]*k+c] = v
		}
	}
	return pb
}

// SolveBatch runs one distributed CG solve for A·x_c = b_c over all columns
// of rhs at once, with full setup (partition + preconditioner build). See
// Prepared.SolveBatch for the cached-setup path and the batching semantics.
func SolveBatch(a *Matrix, rhs [][]float64, opt Options) (*BatchResult, error) {
	return SolveBatchContext(context.Background(), a, rhs, opt)
}

// SolveBatchContext is SolveBatch with cancellation: every rank checks ctx
// once per batch iteration through a collective verdict, so all ranks stop
// at the same iteration boundary and the partial per-column results come
// back with an ErrCanceled-wrapped error.
func SolveBatchContext(ctx context.Context, a *Matrix, rhs [][]float64, opt Options) (*BatchResult, error) {
	t0 := time.Now()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkBatch(opt.solveOptions(), opt.Solver, rhs, a.Rows); err != nil {
		return nil, err
	}
	if err := checkInputMatrix(a, opt.Solver); err != nil {
		return nil, err
	}
	p, outs, err := solveFresh(ctx, t0, a, opt, rhs, len(rhs))
	if err != nil {
		return nil, err
	}
	return assembleBatchResult(p, len(rhs), outs)
}

// SolveBatch runs one batched distributed CG solve over all columns of rhs
// on the prepared system, paying the halo and collective schedule once for
// the whole batch instead of once per column. Per column the result is
// bit-identical to Prepared.Solve on that column alone. Only the classic
// and fused CG variants have batched loops (ErrBatchVariant otherwise).
// Safe for concurrent use like Solve. Cancellation stops all columns at
// the same batch iteration and returns the partial per-column results with
// an ErrCanceled-wrapped error.
func (p *Prepared) SolveBatch(ctx context.Context, rhs [][]float64, so SolveOptions) (*BatchResult, error) {
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if err := checkBatch(so, p.setupOpt.Solver, rhs, p.n); err != nil {
		return nil, err
	}
	outs, err := p.run(ctx, so, nil, rhs, len(rhs))
	if err != nil {
		return nil, err
	}
	return assembleBatchResult(p, len(rhs), outs)
}

// assembleBatchResult folds the per-rank outcomes of a batched solve into
// the caller-facing BatchResult, un-permuting each column of the
// interleaved solution blocks.
func assembleBatchResult(p *Prepared, k int, outs []*mprun.RankOutcome) (*BatchResult, error) {
	px, comm, err := gather(p.n, k, outs)
	if err != nil {
		return nil, err
	}
	root := outs[0]
	bo := root.Batch
	if bo == nil {
		return nil, fmt.Errorf("fsaicomm: rank 0 reported no batch outcome")
	}
	res := &BatchResult{
		Cols:              make([]ColResult, k),
		Iterations:        root.Iterations,
		Refinements:       root.Refinements,
		Ranks:             p.ranks,
		PctNNZIncrease:    root.Pct,
		ImbalanceIndex:    root.Imbalance,
		CommBytes:         comm.P2PBytes,
		CommMessages:      comm.P2PMessages,
		CollectiveCalls:   comm.CollectiveCalls,
		CollectiveBytes:   comm.CollectiveBytes,
		IntraNodeBytes:    comm.IntraP2PBytes,
		IntraNodeMessages: comm.IntraP2PMessages,
		InterNodeBytes:    comm.InterP2PBytes,
		InterNodeMessages: comm.InterP2PMessages,
		SetupTime:         time.Duration(root.SetupNanos),
		SolveTime:         time.Duration(root.SolveNanos),
	}
	for c := range res.Cols {
		res.Cols[c] = ColResult{
			X:           unpermute(px, p.oldToNew, k, c),
			Iterations:  bo.Iterations[c],
			Converged:   bo.Converged[c],
			RelResidual: bo.RelResidual[c],
			Broken:      bo.Broken[c],
		}
	}
	return res, stopErr(root)
}
