package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"fsaicomm"
)

// TestCountMetricsRepeat pins that the count metrics of the traced run
// repeat exactly for one seed, and setup.mallocs to within 0.01%.
func TestCountMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares the 50k-row system three times")
	}
	w := workloads["setup-cold"]
	a, err := loadMatrix(w.matrix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsaicomm.Prepare(a, prepareOptions(fsaicomm.FSAIEComm, w.ranks)); err != nil {
		t.Fatal(err)
	}
	measure := func() metrics {
		tl := &tally{log: io.Discard}
		rm := metrics{}
		p, _, err := traceSetupSolve(w, a, newRHSSource(7), tl, rm)
		if err != nil || p == nil || tl.failed != 0 {
			t.Fatalf("traced setup and solve: err %v, %d of %d checks failed", err, tl.failed, tl.attempted)
		}
		return rm
	}
	first, second := measure(), measure()
	for _, name := range []string{
		"distmat.halo_bytes_per_iter", "distmat.halo_msgs_per_iter",
		"simmpi.collectives_per_iter", "krylov.iterations",
		"simmpi.setup_p2p_bytes", "simmpi.setup_p2p_msgs",
		"partition.edge_cut", "core.pct_nnz",
	} {
		f, s := first[name], second[name]
		if f.Unit == "" || f.Value != s.Value {
			t.Errorf("%s: %v then %v, want one exact value", name, f, s)
		}
	}
	f, s := first["setup.mallocs"].Value, second["setup.mallocs"].Value
	if f == 0 || math.Abs(f-s)/f > 1e-4 {
		t.Errorf("setup.mallocs: %v then %v, want within 0.01%%", f, s)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "serve-warm", "--trace", "2"},
		{"--workload", "serve-warm", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || strings.Contains(out.String(), "correct") {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestCheckSolution(t *testing.T) {
	a := fsaicomm.GeneratePoisson2D(4, 4)
	x := newRHSSource(1).next(a.Rows)
	b := make([]float64, a.Rows)
	a.MulVec(x, b)
	if err := checkSolution(a, x, b); err != nil {
		t.Errorf("exact solution rejected: %v", err)
	}
	x[3] += 1e-3
	if err := checkSolution(a, x, b); err == nil {
		t.Error("perturbed solution accepted")
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	if got := median(vs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(vs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if vs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
