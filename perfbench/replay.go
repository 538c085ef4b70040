package main

import (
	"context"
	"fmt"
	"time"

	"fsaicomm"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// The per-rank setup stages of the replay, in the order Prepare runs them
// (core.BuildPrecond followed by the A operator). Each ends at a collective
// verdict, so a rank's wait there is the time it idles for the slowest rank.
const (
	stExtract = iota
	stBase
	stExtend
	stFactorExt
	stFilter
	stFactorFinal
	stTranspose
	stHaloPlan
	nStages
)

var stageMetric = [nStages]string{
	stExtract:     "distmat.extract_rows_ms",
	stBase:        "core.base_pattern_ms",
	stExtend:      "core.extend_ms",
	stFactorExt:   "fsai.factor_ext_ms",
	stFilter:      "fsai.filter_ms",
	stFactorFinal: "fsai.factor_final_ms",
	stTranspose:   "distmat.transpose_ms",
	stHaloPlan:    "distmat.halo_plan_ms",
}

// microReps is how many calls each per-iteration layer is timed over.
const microReps = 60

// The per-iteration layer calls timed inside the replay's rank world.
const (
	mMatvecA = iota
	mHaloA
	mHaloG
	mHaloGT
	mPrecond
	mAllreduce
	mAxpy
	mDot
	mMatmatA
	mHaloBatch
	mPrecondBatch
	nMicro
)

// rankOps is one rank's replayed operators.
type rankOps struct {
	lo, hi         int
	aOp, gOp, gtOp *distmat.Op
}

// replayResult is one traced replay of Prepare plus the solve-phase layers.
type replayResult struct {
	graph, multilevel, apply time.Duration
	edgeCut                  int64
	imbalance                float64
	stage                    [nStages]time.Duration // worst rank
	wait                     time.Duration          // worst rank, summed over stages
	skew                     float64                // max / mean rank busy time
	wall                     time.Duration          // partition start to last stage end, glue excluded
	setupBytes, setupMsgs    int64
	parts                    []rankOps
	x                        []float64 // DistCG solution, original order
	iterations               int
	iterTime                 time.Duration         // worst rank DistCG wall
	micro                    [nMicro]time.Duration // worst rank, per call
}

// stageSum is the replay's accounted setup time: the serial partition
// layers plus each rank stage's worst-rank time.
func (r *replayResult) stageSum() time.Duration {
	s := r.graph + r.multilevel + r.apply
	for _, d := range r.stage {
		s += d
	}
	return s
}

// replayPrepare re-runs Prepare's pipeline layer by layer — partition,
// ApplyPartition, then each rank's BuildPrecond stages and the A operator
// inside simmpi.Run — timing every layer call, then solves b with
// krylov.DistCG on the replayed operators and times the per-iteration layer
// calls on the same operators.
func replayPrepare(a *fsaicomm.Matrix, method fsaicomm.Method, ranks, k int, b []float64) (*replayResult, error) {
	r := &replayResult{}
	t0 := time.Now()
	g := partition.GraphFromMatrix(a)
	t1 := time.Now()
	part, err := partition.Multilevel(g, ranks, partition.Options{})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	pa, layout, oldToNew := distmat.ApplyPartition(a, part, ranks)
	t3 := time.Now()
	r.graph, r.multilevel, r.apply = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	pb := distmat.PermuteVec(b, oldToNew)
	maxIter := 10 * a.Rows
	if maxIter < 100 {
		maxIter = 100
	}

	busy := make([][nStages]time.Duration, ranks)
	wait := make([][nStages]time.Duration, ranks)
	snaps := make([]simmpi.Snapshot, ranks)
	micro := make([][nMicro]time.Duration, ranks)
	iterTime := make([]time.Duration, ranks)
	xs := make([][]float64, ranks)
	r.parts = make([]rankOps, ranks)
	var stats krylov.Stats
	var setupEnd time.Time

	tRun := time.Now()
	_, err = simmpi.Run(ranks, 5*time.Minute, func(c *simmpi.Comm) error {
		rank := c.Rank()
		lo, hi := layout.Range(rank)
		// stage runs one layer call and then the collective verdict that
		// ends the stage on every rank.
		stage := func(i int, fn func() error) error {
			s := time.Now()
			err := fn()
			e := time.Now()
			var flag int64
			if err != nil {
				flag = 1
			}
			failed := c.AllreduceMaxInt64(flag)[0] != 0
			busy[rank][i], wait[rank][i] = e.Sub(s), time.Since(e)
			if err != nil {
				return err
			}
			if failed {
				return fmt.Errorf("another rank failed stage %s", stageMetric[i])
			}
			return nil
		}
		var (
			aRows      *sparse.CSR
			s, final   *fsai.DistRows
			gExt, gF   *sparse.CSR
			gt         *sparse.CSR
			ops        rankOps
			extendOpts = core.ExtendOptions{LineBytes: 64, CommAware: method == fsaicomm.FSAIEComm}
		)
		steps := []struct {
			id int
			fn func() error
		}{
			{stExtract, func() error { aRows = distmat.ExtractLocalRows(pa, lo, hi); return nil }},
			{stBase, func() error {
				s = core.LowerPatternDist(aRows, lo)
				c.AllreduceSumInt64(int64(s.Pattern.NNZ()))
				return nil
			}},
			{stExtend, func() error {
				if method == fsaicomm.FSAI {
					final = s
					return nil
				}
				var err error
				final, _, err = core.ExtendPattern(layout, s, distmat.Localize(lo, hi, core.PatternCSR(s)), extendOpts)
				return err
			}},
			{stFactorExt, func() error {
				if method == fsaicomm.FSAI {
					return nil
				}
				var err error
				gExt, err = fsai.BuildDistWorkers(c, layout, aRows, final, 1)
				return err
			}},
			{stFilter, func() error {
				if method != fsaicomm.FSAI {
					final = fsai.FilterDist(gExt, lo, hi, filter, s.Pattern)
				}
				return nil
			}},
			{stFactorFinal, func() error {
				var err error
				gF, err = fsai.BuildDistWorkers(c, layout, aRows, final, 1)
				return err
			}},
			{stTranspose, func() error { gt = distmat.TransposeDist(c, layout, lo, hi, gF); return nil }},
			{stHaloPlan, func() error {
				c.AllreduceSumInt64(int64(gF.NNZ()))
				ops = rankOps{lo: lo, hi: hi,
					gOp:  distmat.NewOp(c, layout, lo, hi, gF),
					gtOp: distmat.NewOp(c, layout, lo, hi, gt)}
				distmat.NNZImbalanceIndex(c, int64(gF.NNZ()))
				ops.aOp = distmat.NewOp(c, layout, lo, hi, aRows)
				return nil
			}},
		}
		for _, st := range steps {
			if err := stage(st.id, st.fn); err != nil {
				return err
			}
		}
		snaps[rank] = c.Meter().RankSnapshot(rank)
		r.parts[rank] = ops
		if rank == 0 {
			setupEnd = time.Now()
		}

		// The solve Prepared.Solve would run, on the replayed operators.
		x := make([]float64, hi-lo)
		c.Barrier()
		ts := time.Now()
		st, err := krylov.DistCG(c, ops.aOp, pb[lo:hi], x, krylov.NewDistSplit(ops.gOp, ops.gtOp),
			krylov.Options{Tol: tol, MaxIter: maxIter, Variant: krylov.CGClassic,
				Work: &krylov.Workspace{}, Ctx: context.Background()}, nil)
		iterTime[rank] = time.Since(ts)
		if err != nil {
			return fmt.Errorf("replayed DistCG: %w", err)
		}
		xs[rank] = x
		if rank == 0 {
			stats = st
		}
		micro[rank] = timeIterLayers(c, ops, pb[lo:hi], k)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The traced wall leaves out the replay's own glue between
	// ApplyPartition and simmpi.Run (permuting b, result arrays), which
	// Prepare does not do.
	r.wall = t3.Sub(t0) + setupEnd.Sub(tRun)
	r.edgeCut = partition.EdgeCut(g, part)
	r.imbalance = partition.ImbalanceRatio(g, part, ranks)
	var busyMax, busySum time.Duration
	for rank := 0; rank < ranks; rank++ {
		var rb, rw time.Duration
		for i := 0; i < nStages; i++ {
			rb += busy[rank][i]
			rw += wait[rank][i]
			r.stage[i] = max(r.stage[i], busy[rank][i])
		}
		busyMax, busySum = max(busyMax, rb), busySum+rb
		r.wait = max(r.wait, rw)
		r.setupBytes += snaps[rank].P2PBytes
		r.setupMsgs += snaps[rank].P2PMessages
		r.iterTime = max(r.iterTime, iterTime[rank])
		for i := range r.micro {
			r.micro[i] = max(r.micro[i], micro[rank][i])
		}
	}
	r.skew = float64(busyMax) / (float64(busySum) / float64(ranks))
	r.iterations = stats.Iterations
	px := make([]float64, a.Rows)
	for rank, p := range r.parts {
		copy(px[p.lo:p.hi], xs[rank])
	}
	r.x = make([]float64, a.Rows)
	for i := range r.x {
		r.x[i] = px[oldToNew[i]]
	}
	return r, nil
}

// timeIterLayers times each per-iteration layer call of the CG loop, and
// the k-wide calls of the batched loop, over microReps calls on one rank's
// operators. Collective: every rank runs the same sequence. v seeds the
// input vectors.
func timeIterLayers(c *simmpi.Comm, ops rankOps, v []float64, k int) [nMicro]time.Duration {
	var out [nMicro]time.Duration
	bench := func(id int, fn func()) {
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < microReps; i++ {
			fn()
		}
		out[id] = time.Since(t0) / microReps
	}
	nl := len(v)
	y := make([]float64, nl)
	z := make([]float64, nl)
	aScratch := distmat.NewDistVec(ops.aOp.LZ)
	gScratch := distmat.NewDistVec(ops.gOp.LZ)
	gtScratch := distmat.NewDistVec(ops.gtOp.LZ)
	for _, s := range []*distmat.DistVec{aScratch, gScratch, gtScratch} {
		copy(s.Ext[:nl], v)
	}
	split := krylov.NewDistSplit(ops.gOp, ops.gtOp)
	var sink float64

	bench(mMatvecA, func() { ops.aOp.MulVec(c, v, y, aScratch, nil) })
	bench(mHaloA, func() { ops.aOp.Plan.Exchange(c, aScratch.Ext, nl) })
	bench(mHaloG, func() { ops.gOp.Plan.Exchange(c, gScratch.Ext, nl) })
	bench(mHaloGT, func() { ops.gtOp.Plan.Exchange(c, gtScratch.Ext, nl) })
	bench(mPrecond, func() { split.Apply(c, v, z, nil) })
	bench(mAllreduce, func() { sink += c.AllreduceSum(1)[0] })
	bench(mAxpy, func() { vecops.Axpy(1e-9, v, z, nil) })
	bench(mDot, func() { sink += vecops.Dot(v, y, nil) })

	vb := make([]float64, nl*k)
	for i := range vb {
		vb[i] = v[i/k]
	}
	yb := make([]float64, nl*k)
	bScratch := distmat.NewBatchDistVec(ops.aOp.LZ, k)
	bench(mMatmatA, func() { ops.aOp.MulMat(c, vb, yb, k, nil, bScratch, nil) })
	out[mMatmatA] /= time.Duration(k)
	copy(bScratch.Ext[:nl*k], vb)
	bench(mHaloBatch, func() { ops.aOp.Plan.ExchangeBatch(c, bScratch.Ext, nl, k) })
	splitB := krylov.NewDistSplitBatch(ops.gOp, ops.gtOp, k)
	bench(mPrecondBatch, func() { splitB.ApplyBatch(c, vb, yb, k, nil, nil) })
	out[mPrecondBatch] /= time.Duration(k)
	if sink == 1 { // keeps the dot products live
		out[mDot]++
	}
	return out
}
