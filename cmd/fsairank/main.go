// Command fsairank is the multi-process rank worker. It is normally not run
// by hand: the mprun launcher re-executes whatever binary called it with the
// worker environment set, and MaybeWorker takes over. Running fsairank
// directly gives the self-check mode used by `make mp`:
//
//	fsairank -selfcheck [-ranks 4] [-matrix Dubcova2-sim]
//
// which solves the named catalog matrix once with in-process goroutine ranks
// and once with one OS process per rank over the TCP mesh, then diffs the two
// runs bit for bit — solution vector, iteration count, and per-rank metered
// traffic in both phases. It does so twice on the same instance: a scalar
// full-setup solve, then a K = 4 batched one (every column's solution and
// iteration count).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/testsets"
)

func main() {
	mprun.MaybeWorker()

	selfcheck := flag.Bool("selfcheck", false, "run the sim-vs-multiprocess differential and exit")
	ranks := flag.Int("ranks", 4, "world size for -selfcheck")
	matrix := flag.String("matrix", "Dubcova2-sim", "catalog matrix for -selfcheck")
	flag.Parse()

	if !*selfcheck {
		fmt.Fprintln(os.Stderr, "fsairank: worker environment not set and -selfcheck not given")
		fmt.Fprintln(os.Stderr, "(this binary is normally spawned by the mprun launcher; see -h)")
		os.Exit(2)
	}
	if err := runSelfcheck(*ranks, *matrix); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

func runSelfcheck(ranks int, matrix string) error {
	sp, err := testsets.ByName(matrix)
	if err != nil {
		return err
	}
	a := sp.Generate()
	fmt.Printf("matrix %s: n=%d nnz=%d ranks=%d\n", matrix, a.Rows, a.NNZ(), ranks)
	offsets := make([]int, ranks+1)
	for r := 0; r <= ranks; r++ {
		offsets[r] = r * a.Rows / ranks
	}
	build := &mprun.Build{PA: a, Offsets: offsets,
		Cfg: core.Config{Method: core.FSAIEComm, Filter: 0.01, LineBytes: 64}}
	for _, k := range []int{0, 4} {
		w := max(k, 1)
		b := make([]float64, a.Rows*w)
		for i := range b {
			b[i] = 1 + float64(i%7)/7 + float64(i%w)/3
		}
		spec := func(rank int) *mprun.Spec {
			return &mprun.Spec{Build: build, K: k, B: b[offsets[rank]*w : offsets[rank+1]*w],
				Tol: 1e-8, MaxIter: 2000, Variant: krylov.CGClassic}
		}
		if err := diffBackends(ranks, k, spec); err != nil {
			return fmt.Errorf("K=%d: %w", k, err)
		}
	}
	return nil
}

// diffBackends runs one job on both backends and requires bit-identical
// outcomes on every rank.
func diffBackends(ranks, k int, spec func(rank int) *mprun.Spec) error {
	simOuts := make([]*mprun.RankOutcome, ranks)
	t0 := time.Now()
	if _, err := simmpi.Run(ranks, 60*time.Second, func(c *simmpi.Comm) error {
		out, err := mprun.Run(context.Background(), c, spec(c.Rank()), nil)
		simOuts[c.Rank()] = out
		return err
	}); err != nil {
		return fmt.Errorf("sim backend: %w", err)
	}
	fmt.Printf("K=%d sim backend:  %d iterations in %v\n", k, simOuts[0].Iterations, time.Since(t0).Round(time.Millisecond))

	t1 := time.Now()
	tcpOuts, err := mprun.Launch(context.Background(), ranks, 120*time.Second, spec)
	if err != nil {
		return fmt.Errorf("tcp backend: %w", err)
	}
	fmt.Printf("K=%d tcp backend:  %d iterations in %v (%d worker processes)\n",
		k, tcpOuts[0].Iterations, time.Since(t1).Round(time.Millisecond), ranks)

	for r := 0; r < ranks; r++ {
		s, p := simOuts[r], tcpOuts[r]
		if p == nil {
			return fmt.Errorf("rank %d: no outcome from worker", r)
		}
		if s.Iterations != p.Iterations || s.Converged != p.Converged || s.RelResidual != p.RelResidual {
			return fmt.Errorf("rank %d: stats diverge: sim (%d, %v, %g) vs tcp (%d, %v, %g)",
				r, s.Iterations, s.Converged, s.RelResidual, p.Iterations, p.Converged, p.RelResidual)
		}
		if !reflect.DeepEqual(s.Batch, p.Batch) {
			return fmt.Errorf("rank %d: per-column outcomes diverge: sim %+v vs tcp %+v", r, s.Batch, p.Batch)
		}
		if len(s.XLocal) != len(p.XLocal) {
			return fmt.Errorf("rank %d: solution length diverges: %d vs %d", r, len(s.XLocal), len(p.XLocal))
		}
		w := max(k, 1)
		for i := range s.XLocal {
			if s.XLocal[i] != p.XLocal[i] {
				return fmt.Errorf("rank %d: x[%d] of column %d diverges: %v vs %v", r, s.Lo+i/w, i%w, s.XLocal[i], p.XLocal[i])
			}
		}
		if s.SetupComm != p.SetupComm || s.SolveComm != p.SolveComm {
			return fmt.Errorf("rank %d: metered traffic diverges:\nsim setup %+v solve %+v\ntcp setup %+v solve %+v",
				r, s.SetupComm, s.SolveComm, p.SetupComm, p.SolveComm)
		}
	}
	converged := simOuts[0].Converged
	if bo := simOuts[0].Batch; bo != nil {
		converged = !slices.Contains(bo.Converged, false)
	}
	if !converged {
		return fmt.Errorf("solve did not converge (%d iterations)", simOuts[0].Iterations)
	}
	fmt.Printf("K=%d diff: x, iterations, and per-rank comm meters bit-identical across backends\n", k)
	return nil
}
