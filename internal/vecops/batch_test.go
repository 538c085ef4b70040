package vecops

import (
	"math/rand"
	"testing"
)

func randBlock(rng *rand.Rand, n, k int) []float64 {
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func col(block []float64, k, c, n int) []float64 {
	v := make([]float64, n)
	UnpackColumn(v, block, k, c)
	return v
}

// Every batched kernel must reproduce its scalar counterpart bit for bit on
// each active column and leave masked columns untouched.
// k = 1 with no mask runs the scalar kernel itself and with mask {0} the
// masked loop; both must match it too.
func TestBatchKernelsMatchScalarBitwise(t *testing.T) {
	for _, tc := range []struct {
		k    int
		cols []int
	}{{5, []int{1, 3, 4}}, {1, nil}, {1, []int{0}}} {
		checkBatchKernels(t, tc.k, tc.cols)
	}
}

func checkBatchKernels(t *testing.T, k int, cols []int) {
	rng := rand.New(rand.NewSource(3))
	const n = 57
	active := map[int]bool{}
	for c := 0; c < k; c++ {
		active[c] = cols == nil
	}
	for _, c := range cols {
		active[c] = true
	}

	x := randBlock(rng, n, k)
	y := randBlock(rng, n, k)
	z := randBlock(rng, n, k)
	a := []float64{0.5, -1.25, 2, 0.75, -3}[:k]

	// DotBatch vs Dot.
	out := []float64{9, 9, 9, 9, 9}[:k]
	DotBatch(x, y, k, cols, out, nil)
	for c := 0; c < k; c++ {
		if !active[c] {
			if out[c] != 9 {
				t.Fatalf("DotBatch wrote masked col %d", c)
			}
			continue
		}
		want := Dot(col(x, k, c, n), col(y, k, c, n), nil)
		if out[c] != want {
			t.Fatalf("k=%d cols=%v DotBatch col %d: %v != %v", k, cols, c, out[c], want)
		}
	}
	outAll := make([]float64, k)
	DotBatch(x, y, k, nil, outAll, nil)
	for c := 0; c < k; c++ {
		if want := Dot(col(x, k, c, n), col(y, k, c, n), nil); outAll[c] != want {
			t.Fatalf("DotBatch nil-mask col %d: %v != %v", c, outAll[c], want)
		}
	}

	// Dot2Batch vs Dot2.
	oXY := make([]float64, k)
	oZY := make([]float64, k)
	Dot2Batch(x, y, z, k, cols, oXY, oZY, nil)
	for c := 0; c < k; c++ {
		if !active[c] {
			continue
		}
		wXY, wZY := Dot2(col(x, k, c, n), col(y, k, c, n), col(z, k, c, n), nil)
		if oXY[c] != wXY || oZY[c] != wZY {
			t.Fatalf("k=%d cols=%v Dot2Batch col %d: (%v,%v) != (%v,%v)", k, cols, c, oXY[c], oZY[c], wXY, wZY)
		}
	}

	// AxpyBatch vs Axpy.
	yb := append([]float64(nil), y...)
	AxpyBatch(a, x, yb, k, cols, nil)
	for c := 0; c < k; c++ {
		want := col(y, k, c, n)
		if active[c] {
			Axpy(a[c], col(x, k, c, n), want, nil)
		}
		got := col(yb, k, c, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d cols=%v AxpyBatch col %d row %d: %v != %v", k, cols, c, i, got[i], want[i])
			}
		}
	}

	// XpayBatch vs Xpay.
	yb = append([]float64(nil), y...)
	XpayBatch(x, a, yb, k, cols, nil)
	for c := 0; c < k; c++ {
		want := col(y, k, c, n)
		if active[c] {
			Xpay(col(x, k, c, n), a[c], want, nil)
		}
		got := col(yb, k, c, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d cols=%v XpayBatch col %d row %d: %v != %v", k, cols, c, i, got[i], want[i])
			}
		}
	}
}

func TestFusedCGUpdateBatchMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		k    int
		cols [][]int
	}{{4, [][]int{nil, {0, 2}}}, {1, [][]int{nil, {0}}}} {
		checkFusedCGUpdateBatch(t, tc.k, tc.cols)
	}
}

func checkFusedCGUpdateBatch(t *testing.T, k int, masks [][]int) {
	rng := rand.New(rand.NewSource(5))
	const n = 41
	alpha := []float64{0.9, -0.3, 1.1, 0.2}[:k]
	beta := []float64{0.1, 0.7, -0.5, 1.3}[:k]
	u := randBlock(rng, n, k)
	w := randBlock(rng, n, k)
	p0 := randBlock(rng, n, k)
	s0 := randBlock(rng, n, k)
	x0 := randBlock(rng, n, k)
	r0 := randBlock(rng, n, k)

	for _, cols := range masks {
		p := append([]float64(nil), p0...)
		s := append([]float64(nil), s0...)
		x := append([]float64(nil), x0...)
		r := append([]float64(nil), r0...)
		rr := []float64{-1, -1, -1, -1}[:k]
		FusedCGUpdateBatch(alpha, beta, u, w, p, s, x, r, k, cols, rr, nil)

		activeSet := map[int]bool{}
		if cols == nil {
			for c := 0; c < k; c++ {
				activeSet[c] = true
			}
		} else {
			for _, c := range cols {
				activeSet[c] = true
			}
		}
		for c := 0; c < k; c++ {
			pc := col(p0, k, c, n)
			sc := col(s0, k, c, n)
			xc := col(x0, k, c, n)
			rc := col(r0, k, c, n)
			wantRR := -1.0
			if activeSet[c] {
				wantRR = FusedCGUpdate(alpha[c], beta[c],
					col(u, k, c, n), col(w, k, c, n), pc, sc, xc, rc, nil)
			}
			for i, want := range [][]float64{pc, sc, xc, rc} {
				got := [][]float64{col(p, k, c, n), col(s, k, c, n), col(x, k, c, n), col(r, k, c, n)}[i]
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("k=%d cols=%v fused col %d vec %d row %d: %v != %v", k, cols, c, i, j, got[j], want[j])
					}
				}
			}
			if rr[c] != wantRR {
				t.Fatalf("k=%d cols=%v fused col %d rr: %v != %v", k, cols, c, rr[c], wantRR)
			}
		}
	}
}

func TestBatchFlopAccounting(t *testing.T) {
	const n, k = 10, 4
	x := make([]float64, n*k)
	y := make([]float64, n*k)
	a := make([]float64, k)
	out := make([]float64, k)

	var fc FlopCounter
	DotBatch(x, y, k, nil, out, &fc)
	if fc.Count() != 2*n*k {
		t.Fatalf("DotBatch flops = %d, want %d", fc.Count(), 2*n*k)
	}
	fc.Reset()
	DotBatch(x, y, k, []int{1}, out, &fc)
	if fc.Count() != 2*n {
		t.Fatalf("masked DotBatch flops = %d, want %d", fc.Count(), 2*n)
	}
	fc.Reset()
	AxpyBatch(a, x, y, k, []int{0, 3}, &fc)
	if fc.Count() != 2*n*2 {
		t.Fatalf("AxpyBatch flops = %d, want %d", fc.Count(), 2*n*2)
	}

	// At k = 1 every kernel, unmasked or masked {0}, counts exactly what its
	// scalar counterpart counts.
	x1, y1, z1 := x[:n], y[:n], make([]float64, n)
	p, s, r := make([]float64, n), make([]float64, n), make([]float64, n)
	scalar := map[string]func(fc *FlopCounter){
		"Dot":           func(fc *FlopCounter) { Dot(x1, y1, fc) },
		"Dot2":          func(fc *FlopCounter) { Dot2(x1, y1, z1, fc) },
		"Axpy":          func(fc *FlopCounter) { Axpy(1, x1, y1, fc) },
		"Xpay":          func(fc *FlopCounter) { Xpay(x1, 1, y1, fc) },
		"FusedCGUpdate": func(fc *FlopCounter) { FusedCGUpdate(1, 1, x1, y1, p, s, z1, r, fc) },
	}
	for _, cols := range [][]int{nil, {0}} {
		batch := map[string]func(fc *FlopCounter){
			"Dot":           func(fc *FlopCounter) { DotBatch(x1, y1, 1, cols, out, fc) },
			"Dot2":          func(fc *FlopCounter) { Dot2Batch(x1, y1, z1, 1, cols, out, a, fc) },
			"Axpy":          func(fc *FlopCounter) { AxpyBatch(a, x1, y1, 1, cols, fc) },
			"Xpay":          func(fc *FlopCounter) { XpayBatch(x1, a, y1, 1, cols, fc) },
			"FusedCGUpdate": func(fc *FlopCounter) { FusedCGUpdateBatch(a, a, x1, y1, p, s, z1, r, 1, cols, out, fc) },
		}
		for name, run := range scalar {
			var want, got FlopCounter
			run(&want)
			batch[name](&got)
			if got.Count() != want.Count() {
				t.Fatalf("k=1 cols=%v %sBatch flops = %d, scalar %s counts %d", cols, name, got.Count(), name, want.Count())
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k = 13, 3
	block := make([]float64, n*k)
	want := make([][]float64, k)
	for c := 0; c < k; c++ {
		want[c] = make([]float64, n)
		for i := range want[c] {
			want[c][i] = rng.NormFloat64()
		}
		PackColumn(block, want[c], k, c)
	}
	for c := 0; c < k; c++ {
		got := make([]float64, n)
		UnpackColumn(got, block, k, c)
		for i := range got {
			if got[i] != want[c][i] {
				t.Fatalf("round trip col %d row %d: %v != %v", c, i, got[i], want[c][i])
			}
		}
	}
}

func TestBatchShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"k0", func() { DotBatch(nil, nil, 0, nil, nil, nil) }},
		{"mismatch", func() { DotBatch(make([]float64, 4), make([]float64, 6), 2, nil, make([]float64, 2), nil) }},
		{"shortOut", func() { DotBatch(make([]float64, 4), make([]float64, 4), 2, nil, make([]float64, 1), nil) }},
		{"pack", func() { PackColumn(make([]float64, 5), make([]float64, 3), 2, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}
