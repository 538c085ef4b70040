package mprun_test

import (
	"context"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// TestMain makes this test binary self-host its rank workers: when Launch
// re-executes it with the worker environment set, MaybeWorker takes over
// before any test runs.
func TestMain(m *testing.M) {
	mprun.MaybeWorker()
	os.Exit(m.Run())
}

func evenOffsets(n, ranks int) []int {
	offs := make([]int, ranks+1)
	for r := 0; r <= ranks; r++ {
		offs[r] = r * n / ranks
	}
	return offs
}

func testRHS(n, k int) []float64 {
	b := make([]float64, n*k)
	for i := range b {
		b[i] = 1 + float64(i%7)/7 + float64(i%k)/3
	}
	return b
}

// job returns the per-rank full-setup specs of one solve of a with k
// right-hand-side columns (k = 0: one, scalar loops): every rank shares the
// build and the knobs and gets its own rows of the interleaved right-hand
// side.
func job(a *sparse.CSR, ranks, k int, cfg core.Config, knobs mprun.Spec) func(rank int) *mprun.Spec {
	offs := evenOffsets(a.Rows, ranks)
	w := max(k, 1)
	b := testRHS(a.Rows, w)
	build := &mprun.Build{PA: a, Offsets: offs, Cfg: cfg}
	return func(rank int) *mprun.Spec {
		s := knobs
		s.Build, s.K, s.B = build, k, b[offs[rank]*w:offs[rank+1]*w]
		return &s
	}
}

var (
	fsaieComm = core.Config{Method: core.FSAIEComm, Filter: 0.01, LineBytes: 64}
	cgKnobs   = mprun.Spec{Tol: 1e-8, MaxIter: 500, Variant: krylov.CGClassic}
)

// crossBackendJobs are the full-setup rank jobs the multi-process path must
// reproduce bit for bit: scalar classic CG, a K = 3 batched solve, an FP32
// solve under iterative refinement, and SPAI+GMRES on a nonsymmetric system.
func crossBackendJobs(ranks int) []struct {
	name string
	spec func(rank int) *mprun.Spec
} {
	a := matgen.Poisson2D(16, 16)
	fp32 := cgKnobs
	fp32.Precision = krylov.FP32
	return []struct {
		name string
		spec func(rank int) *mprun.Spec
	}{
		{"classic", job(a, ranks, 0, fsaieComm, cgKnobs)},
		{"batch-k3", job(a, ranks, 3, fsaieComm, cgKnobs)},
		{"fp32", job(a, ranks, 0, fsaieComm, fp32)},
		{"spai-gmres", job(matgen.ConvectionDiffusion2D(16, 16, 20), ranks, 0,
			core.Config{Method: core.SPAI, SPAISteps: 2},
			mprun.Spec{Solver: krylov.SolverGMRES, Restart: 30, Tol: 1e-8, MaxIter: 500})},
	}
}

// runSim executes the same job with in-process goroutine ranks — the oracle
// the multi-process path must match bit for bit.
func runSim(t *testing.T, ranks int, spec func(rank int) *mprun.Spec) []*mprun.RankOutcome {
	t.Helper()
	outs := make([]*mprun.RankOutcome, ranks)
	_, err := simmpi.Run(ranks, 30*time.Second, func(c *simmpi.Comm) error {
		out, err := mprun.Run(context.Background(), c, spec(c.Rank()), nil)
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		return nil
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return outs
}

// TestLaunchSolveMatchesSim is the round-trip check for the multi-process
// machinery itself: spawn 4 worker processes, run the same rank job the sim
// backend runs, and require bit-identical solutions, iteration counts, and
// per-phase meter snapshots on every rank, for every job in the table.
func TestLaunchSolveMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 4
	for _, tc := range crossBackendJobs(ranks) {
		t.Run(tc.name, func(t *testing.T) {
			want := runSim(t, ranks, tc.spec)
			got, err := mprun.Launch(context.Background(), ranks, 60*time.Second, tc.spec)
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			for r := 0; r < ranks; r++ {
				w, g := want[r], got[r]
				if g == nil {
					t.Fatalf("rank %d: no outcome", r)
				}
				if g.Rank != r || g.Lo != w.Lo || g.Hi != w.Hi {
					t.Fatalf("rank %d: layout mismatch: got [%d,%d) want [%d,%d)", r, g.Lo, g.Hi, w.Lo, w.Hi)
				}
				if !reflect.DeepEqual(g.XLocal, w.XLocal) {
					t.Errorf("rank %d: XLocal differs between backends", r)
				}
				if g.Iterations != w.Iterations || g.Converged != w.Converged || g.RelResidual != w.RelResidual {
					t.Errorf("rank %d: stats differ: got (%d, %v, %g) want (%d, %v, %g)",
						r, g.Iterations, g.Converged, g.RelResidual, w.Iterations, w.Converged, w.RelResidual)
				}
				if !reflect.DeepEqual(g.Batch, w.Batch) {
					t.Errorf("rank %d: batch outcome differs:\n got %+v\nwant %+v", r, g.Batch, w.Batch)
				}
				if g.SetupComm != w.SetupComm {
					t.Errorf("rank %d: setup comm differs:\n got %+v\nwant %+v", r, g.SetupComm, w.SetupComm)
				}
				if g.SolveComm != w.SolveComm {
					t.Errorf("rank %d: solve comm differs:\n got %+v\nwant %+v", r, g.SolveComm, w.SolveComm)
				}
			}
			converged := want[0].Converged
			if b := want[0].Batch; b != nil {
				converged = !slices.Contains(b.Converged, false)
			}
			if !converged {
				t.Fatal("oracle did not converge — fixture too hard")
			}
		})
	}
}

// TestLaunchCancelReturnsPartialOutcomes cancels mid-solve and expects every
// worker to wind down cleanly, reporting a Canceled outcome rather than
// hanging or dying.
func TestLaunchCancelReturnsPartialOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 2
	// A big enough system with an unreachably tiny (but positive: zero means
	// "default") tolerance iterates far past the cancel point; the 16×16
	// fixture would hit an exact-zero residual within milliseconds.
	spec := job(matgen.Poisson2D(64, 64), ranks, 0, fsaieComm,
		mprun.Spec{Tol: 1e-300, MaxIter: 1 << 30, Variant: krylov.CGClassic})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	outs, err := mprun.Launch(ctx, ranks, 60*time.Second, spec)
	if err != nil {
		t.Fatalf("Launch after cancel: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancel took %v to wind down", elapsed)
	}
	for r, out := range outs {
		if out == nil {
			t.Fatalf("rank %d: no outcome after cancel", r)
		}
		if !out.Canceled {
			t.Errorf("rank %d: Canceled = false after mid-solve cancel", r)
		}
		if out.Converged {
			t.Errorf("rank %d: Converged = true with Tol=0", r)
		}
		if len(out.XLocal) != out.Hi-out.Lo {
			t.Errorf("rank %d: partial XLocal len %d, want %d", r, len(out.XLocal), out.Hi-out.Lo)
		}
	}
}
