// Package mprun runs one rank's share of a distributed solve — the "rank
// job" — identically under both transport backends. There is one job, Run,
// over one spec type, Spec: full and prepared, scalar and batched solves
// differ only in the spec's fields. A spec with a Build part makes every
// rank build its setup parts in the job (Setup, the same function Prepare
// runs); a spec with ready-made Parts skips straight to the Krylov loop; K
// selects the scalar (0) or batched (≥ 1) loops. The facade's in-process
// path calls Run from goroutine ranks; the multi-process path ships the
// gob-encoded spec to fsairank worker processes (spawned by Launch,
// self-hosted by any binary that calls MaybeWorker) whose TCP mesh
// communicator runs the very same function. One code path on both sides is
// what makes the cross-backend differential tests meaningful: any divergence
// in results or meter structure is the transport's fault, not a drifted
// reimplementation of the solve.
package mprun

import (
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/experiments"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// Spec is one rank's job. Exactly one of Build and Parts is set.
type Spec struct {
	// Build makes the rank build its setup parts inside the job (a full
	// solve); Parts are this rank's parts built earlier by Prepare.
	Build *Build
	Parts *Parts
	// K = 0 runs the scalar loops; K ≥ 1 runs the batched CG loop over K
	// columns at once.
	K int
	// B is this rank's rows of the partition-permuted right-hand side; for
	// K ≥ 1 the interleaved (Hi−Lo)×K block (B[i*K+c] = row i of column c).
	B []float64
	// Per-solve knobs (a krylov.Options subset; the workspace is per-rank
	// local). Solver selects the Krylov loop: CG (the FSAI family) or
	// restarted GMRES with the Restart cycle length (the SPAI method).
	// Precision FP32 narrows the factor operators and runs the FP64
	// iterative-refinement loop around the CG solve.
	Solver               krylov.Solver
	Restart              int
	Tol                  float64
	MaxIter              int
	Variant              krylov.CGVariant
	Trace                bool
	ResidualReplaceEvery int
	Precision            krylov.Precision
	// Arch names the cost-model profile ("" = skylake).
	Arch string
	// Nodes/RanksPerNode declare the two-level topology (0/0 = flat); when a
	// multi-rank topology is in play the halo plans aggregate cross-node
	// traffic per node pair unless NoNodeAggregation keeps the flat per-rank
	// schedule (the metered baseline the node-aware benchmarks compare to).
	// Prepared parts serve any topology: the relay schedule derives from the
	// need counts captured at setup, with zero extra communication.
	Nodes, RanksPerNode int
	NoNodeAggregation   bool
}

// Build is the setup input of a full solve: the partition-permuted matrix
// (every rank receives all of it and extracts its own rows; it is small at
// this reproduction's scale), the layout row offsets (len ranks+1) and the
// preconditioner build config.
type Build struct {
	PA      *sparse.CSR
	Offsets []int
	Cfg     core.Config
}

// Parts is one rank's share of a set-up system: everything the Krylov loop
// needs that is paid once. The localized views are read-only during solves
// and may be shared by concurrent solves; each solve wraps the schedules in
// private halo plans.
type Parts struct {
	Lo, Hi int
	// A is the system matrix; G and GT the FSAI factor pair of CG systems;
	// M the explicit SPAI inverse of GMRES systems (the unused set is zero).
	A, G, GT, M Part
	// Build metrics, identical on every rank.
	Pct, Imbalance float64
}

// Part is one distributed operator's share: its localized rows plus its
// halo schedule as plain index lists (see distmat.NewHaloPlanFromSchedule)
// and the need-count matrix the node-aware relay schedule derives from.
type Part struct {
	LZ         *distmat.Localized
	Send, Recv [][]int
	Counts     []int64
}

// Topology resolves the job's declared node grouping against the world
// size. The zero declaration yields the zero (flat) topology, keeping every
// pre-topology meter reading bit-identical.
func (s *Spec) Topology(size int) (simmpi.Topology, error) {
	if s.Nodes == 0 && s.RanksPerNode == 0 {
		return simmpi.Topology{}, nil
	}
	return simmpi.ResolveTopology(size, s.Nodes, s.RanksPerNode)
}

// RankOutcome is what one rank's job reports back. The facade assembles the
// caller-facing Result from the full outcome set; the multi-process launcher
// gob-ships outcomes from the workers.
type RankOutcome struct {
	Rank   int
	Lo, Hi int
	// XLocal is the rank's slice of the (possibly partial) solution; for
	// batched jobs the interleaved (Hi−Lo)×K block.
	XLocal []float64
	// Solver statistics (meaningful on rank 0, which runs the canonical
	// residual recurrence; other ranks agree by construction). For batched
	// jobs Iterations is the batch loop's count (the maximum over columns).
	Iterations  int
	Converged   bool
	RelResidual float64
	// Canceled reports that the loop stopped on a context verdict.
	Canceled bool
	// Broken reports a solver breakdown (NaN/Inf recurrence or non-SPD
	// curvature): the loop stopped early, XLocal is the partial iterate.
	Broken bool
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision solve (0 for FP64 solves); Iterations then counts the
	// total inner iterations across all steps.
	Refinements int
	// Pct and Imbalance are the build metrics (rank 0 only).
	Pct, Imbalance float64
	// Trace is the rank's telemetry when the spec asked for it (rank 0).
	Trace *krylov.IterTrace
	// Batch carries the per-column outcomes of a batched job (nil for
	// scalar jobs).
	Batch *BatchOutcome
	// Cost is the rank's modeled per-iteration cost inputs.
	Cost experiments.IterCostInputs
	// SetupComm and SolveComm are this rank's metered traffic in the two
	// phases, taken as RankSnapshot deltas. Summed over ranks they give the
	// deterministic world totals the differential tests compare bit-for-bit.
	SetupComm, SolveComm simmpi.Snapshot
	// SetupNanos and SolveNanos are the rank's wall-clock phase durations
	// (SetupNanos is 0 for prepared parts, whose setup was paid earlier).
	SetupNanos, SolveNanos int64
}

// BatchOutcome is the per-column solver outcome of a batched rank job.
type BatchOutcome struct {
	K           int
	Iterations  []int
	Converged   []bool
	RelResidual []float64
	Broken      []bool
}

func newBatchOutcome(bs krylov.BatchStats) *BatchOutcome {
	o := &BatchOutcome{
		K:           bs.K,
		Iterations:  make([]int, bs.K),
		Converged:   make([]bool, bs.K),
		RelResidual: make([]float64, bs.K),
		Broken:      append([]bool(nil), bs.Broken...),
	}
	for c := range bs.Cols {
		o.Iterations[c] = bs.Cols[c].Iterations
		o.Converged[c] = bs.Cols[c].Converged
		o.RelResidual[c] = bs.Cols[c].RelResidual
	}
	return o
}
