package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"fsaicomm"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// sampleReps is how many requests the serve layer, and how many solves per
// method the paper check, time per round.
const sampleReps = 3

// runTraced replays the workload's pipeline in rounds until the time is
// spent (at least one round), timing each layer call, and reports every
// per-layer metric as its median over the rounds.
func runTraced(w workload, seed int64, seconds float64, t *tally, m metrics) error {
	a, err := loadMatrix(w.matrix)
	if err != nil {
		return err
	}
	// Untimed warm-up: the first Prepare of a process runs cold.
	if _, err := fsaicomm.Prepare(a, prepareOptions(fsaicomm.FSAIEComm, w.ranks)); err != nil {
		return fmt.Errorf("warm-up prepare: %w", err)
	}
	src := newRHSSource(seed)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var rounds []metrics
	for {
		r0 := time.Now()
		rm := metrics{}
		if err := traceRound(w, a, src, t, rm); err != nil {
			return err
		}
		rounds = append(rounds, rm)
		if time.Since(start)+time.Since(r0) > budget {
			break
		}
	}
	for name, mt := range rounds[0] {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = r[name].Value
		}
		m.set(name, mt.Unit, median(vs))
	}
	return nil
}

// traceRound measures every layer once on the workload's matrix, ranks and
// method.
func traceRound(w workload, a *fsaicomm.Matrix, src *rhsSource, t *tally, rm metrics) error {
	p, rp, err := traceSetupSolve(w, a, src, t, rm)
	if err != nil || p == nil {
		return err
	}
	if err := traceTransport(w, a, p, rp, src, t, rm); err != nil {
		return err
	}
	if err := traceServe(w, a, p, src, t, rm); err != nil {
		return err
	}
	return tracePaper(w, a, p, src, t, rm)
}

// traceSetupSolve measures the facade's Prepare and Solve from outside,
// replays both layer by layer, and reports the setup, per-iteration, local
// kernel and model layers. It returns the prepared system and the replay,
// or a nil system when the traced solve failed its check.
func traceSetupSolve(w workload, a *fsaicomm.Matrix, src *rhsSource, t *tally, rm metrics) (*fsaicomm.Prepared, *replayResult, error) {
	ctx := context.Background()
	so := solveOptions("")

	// Facade: one untraced Prepare, timed and allocation-counted from outside.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p, err := fsaicomm.Prepare(a, prepareOptions(fsaicomm.FSAIEComm, w.ranks))
	outside := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	rm.set("facade.setup_reported_s", "s", p.SetupTime().Seconds())
	rm.set("facade.setup_outside_s", "s", outside.Seconds())
	rm.set("facade.setup_gap_s", "s", (outside - p.SetupTime()).Seconds())
	rm.set("setup.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rm.set("setup.mallocs", "count", float64(m1.Mallocs-m0.Mallocs))
	rm.set("core.pct_nnz", "%", p.PctNNZIncrease())

	// Solve: the first solve fills the workspace pools; the second is the
	// measured one.
	warm := src.next(a.Rows)
	res, err := p.Solve(ctx, warm, so)
	t.op("warm solve", solveErr(a, res, err, warm))
	b := src.next(a.Rows)
	runtime.ReadMemStats(&m0)
	res, err = p.Solve(ctx, b, so)
	runtime.ReadMemStats(&m1)
	err = solveErr(a, res, err, b)
	t.op("traced solve", err)
	if err != nil {
		return nil, nil, nil
	}
	iters := float64(res.Iterations)
	rm.set("krylov.iterations", "count", iters)
	rm.set("krylov.solve_mallocs", "count", float64(m1.Mallocs-m0.Mallocs))
	rm.set("distmat.halo_bytes_per_iter", "B", float64(res.CommBytes)/iters)
	rm.set("distmat.halo_msgs_per_iter", "count", float64(res.CommMessages)/iters)
	rm.set("simmpi.collectives_per_iter", "count", float64(res.CollectiveCalls)/float64(w.ranks)/iters)

	// Replay of Prepare's layers and the per-iteration layer calls.
	rp, err := replayPrepare(a, fsaicomm.FSAIEComm, w.ranks, batchK, b)
	if err != nil {
		return nil, nil, fmt.Errorf("traced replay: %w", err)
	}
	t.op("replayed DistCG vs Prepared.Solve", func() error {
		if rp.iterations != res.Iterations {
			return fmt.Errorf("%d iterations replayed, %d from Prepared.Solve", rp.iterations, res.Iterations)
		}
		return sameBits(rp.x, res.X)
	}())
	setReplay(rm, rp, outside)

	// Model layer, next to the measured solve.
	modeled := res.ModeledSolveTime
	rm.set("archmodel.modeled_solve_ms", "ms", modeled*1e3)
	rm.set("archmodel.measured_over_modeled", "ratio", res.SolveTime.Seconds()/modeled)
	haloMeasured := (rp.micro[mHaloA] + rp.micro[mHaloG] + rp.micro[mHaloGT]).Seconds() * iters
	rm.set("archmodel.halo_measured_over_modeled", "ratio", haloMeasured/haloWindow(res))

	// Local kernels, outside any rank world.
	rm.set("sparse.spmv_A_ns_per_nnz", "ns", spmvNsPerNNZ(rp.parts[0].aOp.LZ))
	rm.set("sparse.spmv_G_ns_per_nnz", "ns", spmvNsPerNNZ(rp.parts[0].gOp.LZ))
	rm.set("sparse.spmv_bytes_per_nnz_computed", "B", spmvBytesPerNNZ(rp.parts))
	return p, rp, nil
}

// solveErr folds a solve error and the solution check into one error.
func solveErr(a *fsaicomm.Matrix, res *fsaicomm.Result, err error, b []float64) error {
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("solve did not converge")
	}
	return checkSolution(a, res.X, b)
}

// setReplay reports the replay's setup layers and per-iteration layers.
func setReplay(rm metrics, rp *replayResult, untraced time.Duration) {
	rm.set("partition.graph_ms", "ms", ms(rp.graph))
	rm.set("partition.multilevel_ms", "ms", ms(rp.multilevel))
	rm.set("partition.edge_cut", "count", float64(rp.edgeCut))
	rm.set("partition.imbalance", "ratio", rp.imbalance)
	rm.set("distmat.apply_partition_ms", "ms", ms(rp.apply))
	for i, name := range stageMetric {
		rm.set(name, "ms", ms(rp.stage[i]))
	}
	rm.set("simmpi.setup_p2p_bytes", "B", float64(rp.setupBytes))
	rm.set("simmpi.setup_p2p_msgs", "count", float64(rp.setupMsgs))
	rm.set("setup.wait_ms", "ms", ms(rp.wait))
	rm.set("setup.rank_skew", "ratio", rp.skew)
	rm.set("setup.stage_sum_ms", "ms", ms(rp.stageSum()))
	rm.set("setup.traced_wall_ms", "ms", ms(rp.wall))
	rm.set("setup.tracing_overhead_ms", "ms", ms(rp.wall-untraced))

	iters := float64(rp.iterations)
	mu := func(i int) float64 { return us(rp.micro[i]) }
	iterUs := us(rp.iterTime) / iters
	rm.set("krylov.iter_us", "us", iterUs)
	rm.set("distmat.matvec_A_us", "us", mu(mMatvecA))
	rm.set("distmat.halo_A_us", "us", mu(mHaloA))
	rm.set("distmat.halo_G_us", "us", mu(mHaloG))
	rm.set("distmat.halo_GT_us", "us", mu(mHaloGT))
	rm.set("krylov.precond_apply_us", "us", mu(mPrecond))
	rm.set("simmpi.allreduce_us", "us", mu(mAllreduce))
	rm.set("vecops.axpy_us", "us", mu(mAxpy))
	rm.set("vecops.dot_us", "us", mu(mDot))
	// One classic CG iteration: one A product, one preconditioner apply,
	// three local dots, three vector updates and four reductions (three
	// dots plus the cancellation verdict).
	timed := mu(mMatvecA) + mu(mPrecond) + 3*mu(mDot) + 3*mu(mAxpy) + 4*mu(mAllreduce)
	rm.set("krylov.iter_residual_us", "us", iterUs-timed)
	rm.set("distmat.matmat_A_us_per_col", "us", mu(mMatmatA))
	rm.set("distmat.halo_batch_us", "us", mu(mHaloBatch))
	rm.set("krylov.precond_apply_batch_us_per_col", "us", mu(mPrecondBatch))
}

// haloWindow is the modeled halo window of a solve in seconds.
func haloWindow(res *fsaicomm.Result) float64 {
	for _, w := range res.Phases.Windows {
		if w.Name == "halo" {
			return w.RawSec
		}
	}
	return 0
}

// spmvNsPerNNZ times the local CSR product of one rank's localized matrix.
func spmvNsPerNNZ(lz *distmat.Localized) float64 {
	x := make([]float64, lz.M.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	y := make([]float64, lz.M.Rows)
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		lz.M.MulVec(x, y)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*lz.M.NNZ())
}

// spmvBytesPerNNZ counts the bytes one A product moves per stored entry,
// over all ranks: value, column index and gathered x per entry, plus row
// pointers and y per row.
func spmvBytesPerNNZ(parts []rankOps) float64 {
	var bytes, nnz float64
	for _, p := range parts {
		m := p.aOp.LZ.M
		bytes += float64(m.NNZ())*(8+8+8) + float64(m.Rows+1)*8 + float64(m.Rows)*8
		nnz += float64(m.NNZ())
	}
	return bytes / nnz
}

// traceTransport times the halo exchange and the reduction over the socket
// transport (tcpmpi.RunLocal, one goroutine per rank) on the replayed A
// schedule, and one k-wide tcp Prepared.SolveBatch for the multi-process
// launch overhead. Each column of that batch must match the sim scalar solve
// bit for bit.
func traceTransport(w workload, a *fsaicomm.Matrix, p *fsaicomm.Prepared, rp *replayResult, src *rhsSource, t *tally, rm metrics) error {
	halo := make([]time.Duration, w.ranks)
	red := make([]time.Duration, w.ranks)
	_, err := tcpmpi.RunLocal(w.ranks, tcpmpi.Config{}, func(c *simmpi.Comm) error {
		ops := rp.parts[c.Rank()]
		op := distmat.NewOpFromParts(ops.aOp.LZ,
			distmat.NewHaloPlanFromSchedule(ops.aOp.Plan.SendPeers, ops.aOp.Plan.RecvPeers))
		nl := op.LZ.NLocal()
		scratch := distmat.NewDistVec(op.LZ)
		for i := 0; i < nl; i++ {
			scratch.Ext[i] = float64(i)
		}
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < microReps; i++ {
			op.Plan.Exchange(c, scratch.Ext, nl)
		}
		halo[c.Rank()] = time.Since(t0) / microReps
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < microReps; i++ {
			c.AllreduceSum(1)
		}
		red[c.Rank()] = time.Since(t0) / microReps
		c.Quiesce()
		return nil
	})
	if err != nil {
		return fmt.Errorf("tcpmpi replay: %w", err)
	}
	rm.set("tcpmpi.halo_A_us", "us", us(maxDur(halo)))
	rm.set("tcpmpi.allreduce_us", "us", us(maxDur(red)))

	rhs := src.batch(a.Rows, batchK)
	t0 := time.Now()
	br, err := p.SolveBatch(context.Background(), rhs, solveOptions("tcp"))
	wall := time.Since(t0)
	if err == nil {
		err = checkBatch(a, rhs, br)
	}
	t.op("traced tcp batch", err)
	if err != nil {
		return nil
	}
	rm.set("mprun.launch_overhead_ms", "ms", ms(wall-br.SolveTime))
	t.op("tcp batch vs sim solve", compareBatchToSim(p, rhs, br))
	return nil
}

// compareBatchToSim requires each column of a batch to match the
// sim-transport scalar Prepared.Solve of that column bit for bit,
// iterations included.
func compareBatchToSim(p *fsaicomm.Prepared, rhs [][]float64, br *fsaicomm.BatchResult) error {
	for c, b := range rhs {
		res, err := p.Solve(context.Background(), b, solveOptions(""))
		if err != nil {
			return fmt.Errorf("column %d sim solve: %w", c, err)
		}
		if res.Iterations != br.Cols[c].Iterations {
			return fmt.Errorf("column %d: %d iterations in the batch, %d alone", c, br.Cols[c].Iterations, res.Iterations)
		}
		if err := sameBits(br.Cols[c].X, res.X); err != nil {
			return fmt.Errorf("column %d: %w", c, err)
		}
	}
	return nil
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// traceServe times the serving layer on a warm cache: ServeHTTP called
// in-process through a ResponseRecorder, the same request over the loopback
// listener, and a direct Prepared.Solve on the same right-hand side.
func traceServe(w workload, a *fsaicomm.Matrix, p *fsaicomm.Prepared, src *rhsSource, t *tally, rm metrics) error {
	svc, err := startService(1)
	if err != nil {
		return err
	}
	defer svc.stop()
	fp, err := svc.upload(a)
	if err != nil {
		return err
	}
	body, err := solveBody(fp, w.ranks, src.next(a.Rows))
	if err != nil {
		return err
	}
	if _, _, err := svc.post(body); err != nil { // fills the prepared cache
		return fmt.Errorf("serve warm-up: %w", err)
	}
	var handler, overhead, netw []float64
	for i := 0; i < sampleReps; i++ {
		b := src.next(a.Rows)
		body, err := solveBody(fp, w.ranks, b)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
		t0 := time.Now()
		svc.srv.ServeHTTP(rec, req)
		h := time.Since(t0)
		var rep solveReply
		err = json.Unmarshal(rec.Body.Bytes(), &rep)
		if err == nil && rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d", rec.Code)
		}
		if err == nil {
			err = checkReply(a, &rep, b)
		}
		t.op("in-process /solve", err)

		netRep, lat, err := svc.post(body)
		if err == nil {
			err = checkReply(a, netRep, b)
		}
		t.op("loopback /solve", err)

		t0 = time.Now()
		res, err := p.Solve(context.Background(), b, solveOptions(""))
		direct := time.Since(t0)
		if err == nil {
			err = sameBits(rep.X, res.X)
		}
		t.op("served x vs direct Prepared.Solve", err)
		handler = append(handler, ms(h))
		overhead = append(overhead, ms(h-direct))
		netw = append(netw, ms(lat-h))
	}
	rm.set("serve.handler_ms", "ms", median(handler))
	rm.set("serve.overhead_ms", "ms", median(overhead))
	rm.set("serve.net_ms", "ms", median(netw))

	resp, err := svc.client.Get(svc.url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var met struct {
		Jobs struct {
			Rejected int64 `json:"rejected"`
		} `json:"jobs"`
		Cache struct {
			Prepared struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"prepared"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	pc := met.Cache.Prepared
	rm.set("serve.cache_hit_ratio", "ratio", float64(pc.Hits)/float64(pc.Hits+pc.Misses))
	rm.set("serve.rejected", "count", float64(met.Jobs.Rejected))
	return nil
}

// tracePaper solves the same right-hand sides with the FSAI baseline and
// FSAIE-Comm, alternating which goes first, and reports FSAIE-Comm over
// FSAI.
func tracePaper(w workload, a *fsaicomm.Matrix, p *fsaicomm.Prepared, src *rhsSource, t *tally, rm metrics) error {
	base, err := fsaicomm.Prepare(a, prepareOptions(fsaicomm.FSAI, w.ranks))
	if err != nil {
		return fmt.Errorf("prepare FSAI: %w", err)
	}
	so := solveOptions("")
	var tComm, tBase, itComm, itBase []float64
	for i := 0; i < sampleReps; i++ {
		type arm struct {
			p     *fsaicomm.Prepared
			wall  *[]float64
			iters *[]float64
		}
		sides := []arm{{p, &tComm, &itComm}, {base, &tBase, &itBase}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		b := src.next(a.Rows)
		for _, side := range sides {
			t0 := time.Now()
			res, err := side.p.Solve(context.Background(), b, so)
			d := time.Since(t0)
			err = solveErr(a, res, err, b)
			t.op("paper solve", err)
			if err != nil {
				return nil
			}
			*side.wall = append(*side.wall, d.Seconds())
			*side.iters = append(*side.iters, float64(res.Iterations))
		}
	}
	rm.set("paper.iter_ratio", "ratio", median(itComm)/median(itBase))
	rm.set("paper.solve_ratio", "ratio", median(tComm)/median(tBase))
	return nil
}
