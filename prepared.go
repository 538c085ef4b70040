package fsaicomm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
)

// SolveOptions are the per-solve knobs of a Prepared system: everything in
// Options that does not change the partition or the preconditioner factors.
// The setup-shaping fields (Method, Filter, Ranks, Partitioner, ...) are
// fixed at Prepare time; trying to change them per solve would invalidate
// the cached factors, so they simply are not here.
type SolveOptions struct {
	// Tol is the relative residual target. Default 1e-8.
	Tol float64
	// MaxIter caps CG iterations. Default 10·n.
	MaxIter int
	// CGVariant selects the distributed CG loop (see Options.CGVariant).
	// Ignored by systems prepared for SPAI+GMRES, which run the classic
	// blocking schedule only.
	CGVariant CGVariant
	// Restart overrides the GMRES restart length for this solve (0 keeps
	// the Prepare-time Options.Restart). Ignored by CG-prepared systems.
	Restart int
	// Arch names the architecture profile for Result.ModeledSolveTime
	// ("skylake" default, "a64fx", "zen2").
	Arch string
	// Trace records per-iteration telemetry into Result.Trace (rank 0).
	Trace bool
	// ResidualReplaceEvery periodically recomputes the true residual in the
	// pipelined loop (see Options.ResidualReplaceEvery).
	ResidualReplaceEvery int
	// Transport selects the rank runtime: "sim" (default) or "tcp" (one OS
	// process per rank; the localized factors and halo schedules are shipped
	// to the workers, so the solve still pays no setup communication). See
	// Options.Transport.
	Transport string
	// Nodes and RanksPerNode declare a per-solve two-level topology (see
	// Options.Nodes). A cached prepared system can be solved under any node
	// grouping: the node-aware relay schedule derives from need counts
	// captured at Prepare time, with zero extra setup communication.
	Nodes        int
	RanksPerNode int
	// NoNodeAggregation keeps the flat per-rank halo schedule under the
	// declared topology (see Options.NoNodeAggregation).
	NoNodeAggregation bool
}

// Validate rejects nonsensical per-solve options, reusing the facade's
// single validator so the HTTP layer and the library agree on what a bad
// request is.
func (o SolveOptions) Validate() error {
	if o.Restart < 0 {
		return fmt.Errorf("%w: Restart %d is negative (0 keeps the Prepare-time value)", ErrInvalidOptions, o.Restart)
	}
	return Options{
		Tol:                  o.Tol,
		MaxIter:              o.MaxIter,
		CGVariant:            o.CGVariant,
		Arch:                 o.Arch,
		ResidualReplaceEvery: o.ResidualReplaceEvery,
		Transport:            o.Transport,
		Nodes:                o.Nodes,
		RanksPerNode:         o.RanksPerNode,
		NoNodeAggregation:    o.NoNodeAggregation,
	}.Validate()
}

// Prepared is a fully set-up distributed system: partition, permutation,
// localized matrix, halo-plan schedules and preconditioner factors, built
// once by Prepare and reusable for any number of Solve calls — including
// concurrent ones. Each Solve spins up its own simulated world and derives
// private operators from the shared read-only parts with zero setup
// communication, so repeated solves pay only the Krylov loop. This is the
// unit the serving layer caches: one Prepared per (matrix fingerprint,
// setup options) pair.
type Prepared struct {
	n        int
	ranks    int
	setupOpt Options // canonicalized setup options (informational)
	layout   *distmat.Layout
	oldToNew []int
	// parts are the per-rank setup parts (localized views read-only during
	// solves and shared by every solve, plus the halo schedules each solve
	// wraps in private plans); nil while a full solve builds its own.
	parts []*mprun.Parts
	setup time.Duration
	// pools hold per-rank krylov workspaces so steady-state solves allocate
	// only the solution vector. Indexed by rank: concurrent solves share the
	// pools, but a workspace is only ever used by one rank goroutine at a
	// time between Get and Put.
	pools []sync.Pool
}

// Prepare partitions A, builds the selected preconditioner variant and the
// halo schedules, and returns a Prepared system ready for repeated solves.
// The setup-phase communication (plan index exchange, remote row gather,
// distributed transpose) happens exactly once, here.
func Prepare(a *Matrix, opt Options) (*Prepared, error) {
	t0 := time.Now()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInputMatrix(a, opt.Solver); err != nil {
		return nil, err
	}
	p, build, err := partitioned(a, opt)
	if err != nil {
		return nil, err
	}
	p.parts = make([]*mprun.Parts, p.ranks)
	if _, err := simmpi.Run(p.ranks, time.Hour, func(c *simmpi.Comm) error {
		parts, err := mprun.Setup(c, build)
		p.parts[c.Rank()] = parts
		return err
	}); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	return p, nil
}

// partitioned is the part of the setup that runs before any rank does:
// resolve the defaults and the rank count, partition A and permute it. It
// returns the system without its per-rank parts plus the build they are
// made from.
func partitioned(a *Matrix, opt Options) (*Prepared, *mprun.Build, error) {
	opt = opt.withDefaults(a.Rows)
	opt.Ranks = AutoRanks(a, opt.Ranks)
	if opt.Ranks < 1 {
		return nil, nil, fmt.Errorf("fsaicomm: ranks %d < 1", opt.Ranks)
	}
	part, err := partitionRows(a, opt, opt.Ranks)
	if err != nil {
		return nil, nil, err
	}
	pa, layout, oldToNew := distmat.ApplyPartition(a, part, opt.Ranks)
	p := &Prepared{
		n:        a.Rows,
		ranks:    opt.Ranks,
		setupOpt: opt,
		layout:   layout,
		oldToNew: oldToNew,
		pools:    make([]sync.Pool, opt.Ranks),
	}
	for i := range p.pools {
		p.pools[i].New = func() any { return &krylov.Workspace{} }
	}
	return p, &mprun.Build{PA: pa, Offsets: layout.Offsets, Cfg: buildConfig(opt)}, nil
}

// run executes one solve on p's partition through the single rank job, on
// the transport so selects. With build set every rank builds its setup
// parts inside the job (a full solve); otherwise it takes p.parts. k = 0
// solves rhs[0] with the scalar loops, k ≥ 1 all k columns at once with the
// batched loop.
func (p *Prepared) run(ctx context.Context, so SolveOptions, build *mprun.Build, rhs [][]float64, k int) ([]*mprun.RankOutcome, error) {
	topo, err := resolveTopology(p.ranks, so.Nodes, so.RanksPerNode)
	if err != nil {
		return nil, err
	}
	so.Tol, so.MaxIter = solveLimits(so.Tol, so.MaxIter, p.n)
	restart := p.setupOpt.Restart
	if so.Restart > 0 {
		restart = so.Restart
	}
	w := len(rhs)
	pb := packPermuted(rhs, p.oldToNew)
	spec := func(rank int) *mprun.Spec {
		lo, hi := p.layout.Range(rank)
		s := &mprun.Spec{
			Build: build, K: k, B: pb[lo*w : hi*w],
			Solver:               p.setupOpt.Solver,
			Restart:              restart,
			Tol:                  so.Tol,
			MaxIter:              so.MaxIter,
			Variant:              so.CGVariant,
			Trace:                so.Trace,
			ResidualReplaceEvery: so.ResidualReplaceEvery,
			Precision:            p.setupOpt.Precision,
			Arch:                 so.Arch,
			Nodes:                topo.Nodes,
			RanksPerNode:         topo.RanksPerNode,
			NoNodeAggregation:    so.NoNodeAggregation,
		}
		if build == nil {
			s.Parts = p.parts[rank]
		}
		return s
	}
	if so.Transport == "tcp" {
		// Each worker process receives its parts over the wire (or builds
		// them over the socket mesh) and runs with a fresh workspace, so the
		// pools stay local.
		return mprun.Launch(ctx, p.ranks, time.Hour, spec)
	}
	outs := make([]*mprun.RankOutcome, p.ranks)
	if _, err := simmpi.RunTopo(p.ranks, time.Hour, topo, func(c *simmpi.Comm) error {
		ws := p.pools[c.Rank()].Get().(*krylov.Workspace)
		defer p.pools[c.Rank()].Put(ws)
		out, err := mprun.Run(ctx, c, spec(c.Rank()), ws)
		outs[c.Rank()] = out
		return err
	}); err != nil {
		return nil, err
	}
	return outs, nil
}

// Ranks returns the simulated-process count the system was prepared for.
func (p *Prepared) Ranks() int { return p.ranks }

// Rows returns the system dimension.
func (p *Prepared) Rows() int { return p.n }

// SetupTime returns the wall-clock cost of Prepare — the time every solve
// served from this Prepared avoids paying again.
func (p *Prepared) SetupTime() time.Duration { return p.setup }

// PctNNZIncrease returns the factor pattern growth versus the FSAI baseline.
func (p *Prepared) PctNNZIncrease() float64 { return p.parts[0].Pct }

// Options returns the canonicalized setup options (defaults applied,
// automatic rank count resolved).
func (p *Prepared) Options() Options { return p.setupOpt }

// SizeBytes estimates the memory retained by the prepared system — the
// localized matrix and factor copies plus the halo schedules — for cache
// byte-budget accounting. It ignores small fixed overheads.
func (p *Prepared) SizeBytes() int64 {
	var total int64
	partBytes := func(pt *mprun.Part) int64 {
		var n int64
		if lz := pt.LZ; lz != nil {
			n += int64(len(lz.M.RowPtr) + len(lz.M.ColIdx) + len(lz.M.Val) + len(lz.Halo))
		}
		// Each non-empty peer list plus its peer ID.
		for _, lists := range [][][]int{pt.Send, pt.Recv} {
			for _, l := range lists {
				if len(l) > 0 {
					n += int64(len(l) + 1)
				}
			}
		}
		return 8 * n
	}
	for _, r := range p.parts {
		total += partBytes(&r.A) + partBytes(&r.G) + partBytes(&r.GT) + partBytes(&r.M)
	}
	total += 8 * int64(len(p.oldToNew))
	return total
}

// Solve runs one distributed CG solve A·x = b on the prepared system. It
// performs no setup communication: every rank derives private operators
// from the shared localized views and cloned plan schedules, so the
// returned Result reports SetupTime 0. Safe to call concurrently from
// multiple goroutines; concurrent solves share the read-only parts and
// nothing else. Cancellation follows SolveDistributedContext: all ranks
// stop at the same iteration boundary and the partial Result comes back
// with an ErrCanceled-wrapped error.
func (p *Prepared) Solve(ctx context.Context, b []float64, so SolveOptions) (*Result, error) {
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if len(b) != p.n {
		return nil, fmt.Errorf("fsaicomm: rhs length %d, want %d", len(b), p.n)
	}
	if p.setupOpt.Solver == SolverGMRES && so.CGVariant != CGClassic {
		return nil, fmt.Errorf("%w: this system was prepared for SPAI+GMRES, which has only the classic blocking schedule", ErrInvalidOptions)
	}
	outs, err := p.run(ctx, so, nil, [][]float64{b}, 0)
	if err != nil {
		return nil, err
	}
	return assembleDistResult(p, so, outs)
}
