package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fsaicomm"
	"fsaicomm/internal/experiments"
	"fsaicomm/internal/testsets"
)

// Every solve of every workload: classic CG to tol with FSAIE-Comm at the
// given filter (the paper's method and a mid-range filter value).
const (
	tol    = 1e-8
	filter = 0.05
	// batchK is the batch width of the k-wide layer replays and of the
	// traced tcp batch.
	batchK = 8
	// setupReps is how many times a run prepares the warm system before its
	// loop; setup_s is their median.
	setupReps = 5
)

// workload is one closed-loop traffic shape.
type workload struct {
	name    string
	matrix  string // experiments.BenchSpec name or a testsets catalog name
	ranks   int
	clients int // concurrent closed-loop HTTP clients (serve-warm)
}

var workloads = map[string]workload{
	// Prepare + one Solve per op: setup dominates (partition, pattern
	// extension, factor, transpose, halo plan).
	"setup-cold": {name: "setup-cold", matrix: "bench-poisson-50k", ranks: 4},
	// POST /solve against a warm prepared cache: many cheap iterations, so
	// per-iteration and serving overheads dominate.
	"serve-warm": {name: "serve-warm", matrix: "Flan_1565-sim", ranks: 4, clients: 2},
}

// loadMatrix generates the workload's matrix (deterministic).
func loadMatrix(name string) (*fsaicomm.Matrix, error) {
	if b := experiments.BenchSpec(); name == b.Name {
		return b.Generate(), nil
	}
	spec, err := testsets.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(), nil
}

func prepareOptions(method fsaicomm.Method, ranks int) fsaicomm.Options {
	return fsaicomm.Options{Method: method, Filter: filter, Ranks: ranks, Tol: tol, CGVariant: fsaicomm.CGClassic}
}

func solveOptions(transport string) fsaicomm.SolveOptions {
	return fsaicomm.SolveOptions{Tol: tol, CGVariant: fsaicomm.CGClassic, Transport: transport}
}

// rhsSource yields the run's right-hand sides: uniform in [-1, 1),
// deterministic for a seed.
type rhsSource struct{ rng *rand.Rand }

func newRHSSource(seed int64) *rhsSource { return &rhsSource{rng: rand.New(rand.NewSource(seed))} }

func (s *rhsSource) next(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*s.rng.Float64() - 1
	}
	return b
}

func (s *rhsSource) batch(n, k int) [][]float64 {
	out := make([][]float64, k)
	for c := range out {
		out[c] = s.next(n)
	}
	return out
}

// checkSolution recomputes ‖b−Ax‖/‖b‖ in FP64 from the original matrix and
// rejects anything above 10·tol.
func checkSolution(a *fsaicomm.Matrix, x, b []float64) error {
	if len(x) != a.Rows {
		return fmt.Errorf("solution length %d, want %d", len(x), a.Rows)
	}
	ax := make([]float64, a.Rows)
	a.MulVec(x, ax)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	rel := math.Sqrt(rr / bb)
	if !(rel <= 10*tol) {
		return fmt.Errorf("true relative residual %.3e > %.0e", rel, 10*tol)
	}
	return nil
}

// sameBits reports whether two vectors are bit-identical.
func sameBits(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("lengths %d and %d", len(x), len(y))
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return fmt.Errorf("entry %d differs: %v vs %v", i, x[i], y[i])
		}
	}
	return nil
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (vs is not modified). NaN for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
