package mprun

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/experiments"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
)

// Setup builds this rank's setup parts: extract the local rows of the
// permuted matrix, build the preconditioner, localize A, and capture every
// operator's halo schedule. Collective: every rank calls it with the same
// build. Prepare and the full-solve rank job both run exactly this, so a
// prepared system and a full solve share their setup bit for bit.
func Setup(c *simmpi.Comm, b *Build) (*Parts, error) {
	layout := &distmat.Layout{N: b.PA.Rows, Offsets: b.Offsets}
	lo, hi := layout.Range(c.Rank())
	aRows := distmat.ExtractLocalRows(b.PA, lo, hi)
	bd, err := core.BuildPrecond(c, layout, aRows, b.Cfg)
	if err != nil {
		return nil, err
	}
	p := &Parts{
		Lo: lo, Hi: hi,
		A:         partOf(distmat.NewOp(c, layout, lo, hi, aRows)),
		Pct:       bd.PctNNZIncrease,
		Imbalance: bd.ImbalanceIndex,
	}
	if bd.MOp != nil {
		p.M = partOf(bd.MOp)
	} else {
		p.G, p.GT = partOf(bd.GOp), partOf(bd.GTOp)
	}
	return p, nil
}

func partOf(op *distmat.Op) Part {
	return Part{LZ: op.LZ, Send: op.Plan.SendPeers, Recv: op.Plan.RecvPeers, Counts: op.Plan.NeedCounts()}
}

// op derives a private per-solve operator from the part with no
// communication: the shared localized view plus a fresh halo plan over the
// shipped schedule. Flat worlds (or schedules without need counts) get the
// flat plan; topology worlds a node-aware plan derived from the need counts,
// downgraded to the flat baseline under noAgg.
func (p *Part) op(c *simmpi.Comm, noAgg bool, opts []distmat.OpOption) *distmat.Op {
	topo := c.Topology()
	if topo.Flat() || p.Counts == nil {
		return distmat.NewOpFromParts(p.LZ, distmat.NewHaloPlanFromSchedule(p.Send, p.Recv), opts...)
	}
	plan := distmat.NewHaloPlanFromScheduleTopo(p.Send, p.Recv, p.Counts, c.Rank(), topo)
	if noAgg {
		plan.SetNodeAware(false)
	}
	return distmat.NewOpFromParts(p.LZ, plan, opts...)
}

// Run executes one rank of a distributed solve — full or prepared, scalar
// or batched — in four steps: get the setup parts, derive the per-solve
// operators from them, run the Krylov loop, and fold the outcome. It is the
// single implementation behind both backends: the facade's goroutine ranks
// and the fsairank worker processes call exactly this. ws may carry a
// pooled workspace (nil allocates a fresh one).
//
// ctx must be non-nil and the same "all ranks or none" choice on every rank:
// the loops poll it through a per-iteration collective verdict, which is
// itself a collective every rank must enter.
func Run(ctx context.Context, c *simmpi.Comm, spec *Spec, ws *krylov.Workspace) (*RankOutcome, error) {
	rank := c.Rank()
	prof, err := profileFor(spec.Arch)
	if err != nil {
		return nil, err
	}
	gmres := spec.Solver == krylov.SolverGMRES
	if gmres && spec.K > 0 {
		return nil, fmt.Errorf("mprun: batched solves support the CG family only")
	}

	// 1. The setup parts: built here for a full solve, ready-made otherwise.
	// One barrier then separates the phases: traffic up to and including it
	// is "setup", everything after is "solve". Phase attribution needs no
	// meter reset (and hence no cross-rank reset race): each rank's counters
	// are charged synchronously on its own goroutine, so snapshot deltas are
	// exact and deterministic on every backend.
	t0 := time.Now()
	parts := spec.Parts
	var setupNanos int64
	if spec.Build != nil {
		if parts, err = Setup(c, spec.Build); err != nil {
			return nil, err
		}
		c.Barrier()
		setupNanos = time.Since(t0).Nanoseconds()
	}
	if parts == nil {
		return nil, fmt.Errorf("mprun: spec carries neither a build nor parts")
	}
	out := &RankOutcome{
		Rank: rank, Lo: parts.Lo, Hi: parts.Hi,
		SetupComm:  c.Meter().RankSnapshot(rank),
		SetupNanos: setupNanos,
	}
	if rank == 0 {
		out.Pct, out.Imbalance = parts.Pct, parts.Imbalance
	}

	// 2. Per-solve operators from the parts alone. The communication-hiding
	// scalar variants get overlap views (the batched loops use the blocking
	// schedule only); FP32 narrows the factor operators (the float32 value
	// copy is cached on the shared Localized, built once across solves).
	nl := parts.Hi - parts.Lo
	var opts []distmat.OpOption
	if spec.K == 0 && spec.Variant != krylov.CGClassic {
		opts = append(opts, distmat.WithOverlap())
	}
	aOp := parts.A.op(c, spec.NoNodeAggregation, opts)
	var gOp, gtOp, mOp *distmat.Op
	if gmres {
		mOp = parts.M.op(c, spec.NoNodeAggregation, opts)
		out.Cost = experiments.AssembleSPAIGMRESIterCost(prof, aOp, mOp, nl, c.Size(), spec.Restart)
	} else {
		gOp = parts.G.op(c, spec.NoNodeAggregation, opts)
		gtOp = parts.GT.op(c, spec.NoNodeAggregation, opts)
		if spec.Precision == krylov.FP32 {
			gOp.SetF32(true)
			gtOp.SetF32(true)
		}
		out.Cost = experiments.AssembleIterCost(prof, aOp, gOp, gtOp, nl, c.Size(), spec.Variant)
	}
	// aInner is the float32 twin of A for the refinement loops' inner
	// solves: it shares aOp's localized matrix but clones the plan, so the
	// inner halo runs half-width while aOp keeps the full-width schedule for
	// the outer FP64 residual. The clone keeps the plan's routing.
	aInner := func() *distmat.Op {
		inner := distmat.NewOpFromParts(aOp.LZ, aOp.Plan.Clone(), opts...)
		inner.SetF32(true)
		return inner
	}

	// 3. The Krylov loop. Each rank gets its own workspace; workspaces must
	// never be shared between concurrent solves.
	if ws == nil {
		ws = &krylov.Workspace{}
	}
	opt := krylov.Options{Tol: spec.Tol, MaxIter: spec.MaxIter,
		Variant: spec.Variant, Restart: spec.Restart,
		Work:                 ws,
		Trace:                spec.Trace,
		ResidualReplaceEvery: spec.ResidualReplaceEvery,
		Ctx:                  ctx}
	out.XLocal = make([]float64, nl*max(spec.K, 1))
	t1 := time.Now()
	var st krylov.Stats
	switch {
	case spec.K > 0:
		var bs krylov.BatchStats
		m := krylov.NewDistSplitBatch(gOp, gtOp, spec.K)
		if spec.Precision == krylov.FP32 {
			bs, err = krylov.DistCGBatchRefined(c, aOp, aInner(), spec.B, out.XLocal, m, spec.K, opt, nil)
		} else {
			bs, err = krylov.DistCGBatch(c, aOp, spec.B, out.XLocal, m, spec.K, opt, nil)
		}
		st = krylov.Stats{Iterations: bs.Iterations, Refinements: bs.Refinements}
		out.Batch = newBatchOutcome(bs)
	case gmres:
		st, err = krylov.DistGMRES(c, aOp, spec.B, out.XLocal, krylov.NewDistMatPrecond(mOp), opt, nil)
	case spec.Precision == krylov.FP32:
		st, err = krylov.DistCGRefined(c, aOp, aInner(), spec.B, out.XLocal, krylov.NewDistSplit(gOp, gtOp), opt, nil)
	default:
		st, err = krylov.DistCG(c, aOp, spec.B, out.XLocal, krylov.NewDistSplit(gOp, gtOp), opt, nil)
	}

	// 4. The outcome. Non-convergence, cancellation and breakdown are
	// results, not failures: the partial iterate comes back with the flags.
	canceled := errors.Is(err, krylov.ErrCanceled)
	broken := errors.Is(err, krylov.ErrBreakdown)
	if err != nil && !errors.Is(err, krylov.ErrNoConvergence) && !canceled && !broken {
		return nil, err
	}
	out.SolveNanos = time.Since(t1).Nanoseconds()
	out.SolveComm = c.Meter().RankSnapshot(rank).Sub(out.SetupComm)
	out.Iterations = st.Iterations
	out.Converged = st.Converged
	out.RelResidual = st.RelResidual
	out.Canceled = canceled
	out.Broken = broken
	out.Refinements = st.Refinements
	out.Trace = st.Trace
	return out, nil
}

func profileFor(arch string) (archmodel.Profile, error) {
	if arch == "" {
		return archmodel.Skylake, nil
	}
	return archmodel.ByName(arch)
}
