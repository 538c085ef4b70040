package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randCSR32Source builds a small random matrix whose values span several
// orders of magnitude, so narrowing actually rounds.
func randCSR32Source(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+rng.Float64())
		for _, j := range rng.Perm(n)[:2] {
			if j != i {
				c.Add(i, j, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(7)-3)))
			}
		}
	}
	return c.ToCSR()
}

func TestCSR32NarrowWidenRoundTrip(t *testing.T) {
	src := randCSR32Source(12, 1)
	m := NewCSR32(src)
	back := m.Widen()
	if back.Rows != src.Rows || back.Cols != src.Cols || back.NNZ() != src.NNZ() {
		t.Fatalf("shape changed: %dx%d/%d vs %dx%d/%d",
			back.Rows, back.Cols, back.NNZ(), src.Rows, src.Cols, src.NNZ())
	}
	for i, v := range src.Val {
		if want := float64(float32(v)); back.Val[i] != want {
			t.Fatalf("Val[%d]: widened %v, want the one-rounding value %v (src %v)", i, back.Val[i], want, v)
		}
	}
	// The narrow shares structure with its source; the widened copy must not.
	if &m.RowPtr[0] != &src.RowPtr[0] || &m.ColIdx[0] != &src.ColIdx[0] {
		t.Error("NewCSR32 copied RowPtr/ColIdx instead of sharing")
	}
	if &back.RowPtr[0] == &src.RowPtr[0] || &back.ColIdx[0] == &src.ColIdx[0] {
		t.Error("Widen shares structure arrays with the source")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("widened matrix invalid: %v", err)
	}
}

func TestCSR32MaxRelErrorBound(t *testing.T) {
	src := randCSR32Source(16, 2)
	m := NewCSR32(src)
	if e := m.MaxRelError(src.Val); e > 1.0/(1<<24) {
		t.Fatalf("narrowing error %g exceeds one float32 rounding (2^-24)", e)
	}
	// A genuinely different value array must register.
	off := append([]float64(nil), src.Val...)
	off[3] *= 1.25
	if e := m.MaxRelError(off); e < 0.1 {
		t.Fatalf("MaxRelError %g misses a 25%% perturbation", e)
	}
}

// TestCSR32ProductsMatchWiden pins the mixed-precision kernel contract: the
// float64-accumulating CSR32 products must be bitwise identical to running
// the full-precision kernels over the widened matrix — narrowing rounds the
// stored values once, and nothing else.
func TestCSR32ProductsMatchWiden(t *testing.T) {
	src := randCSR32Source(10, 3)
	m := NewCSR32(src)
	wide := m.Widen()
	n := src.Rows
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	y32, y64 := make([]float64, n), make([]float64, n)
	m.MulVec(x, y32)
	wide.MulVec(x, y64)
	for i := range y32 {
		if y32[i] != y64[i] {
			t.Fatalf("MulVec y[%d]: %v vs widened %v", i, y32[i], y64[i])
		}
	}

	m.MulVecTrans(x, y32)
	wide.MulVecTrans(x, y64)
	for i := range y32 {
		if y32[i] != y64[i] {
			t.Fatalf("MulVecTrans y[%d]: %v vs widened %v", i, y32[i], y64[i])
		}
	}

	// k = 1 with no mask runs MulVec itself; mask {0} runs the masked loop.
	for _, tc := range []struct {
		k     int
		masks [][]int
	}{{3, [][]int{nil, {0, 2}}}, {1, [][]int{nil, {0}}}} {
		k := tc.k
		xb := make([]float64, n*k)
		for i := range xb {
			xb[i] = rng.NormFloat64()
		}
		yb32, yb64 := make([]float64, n*k), make([]float64, n*k)
		for _, cols := range tc.masks {
			m.MulMatCols(xb, yb32, k, cols)
			wide.MulMatCols(xb, yb64, k, cols)
			active := cols
			if active == nil {
				active = []int{0, 1, 2}[:k]
			}
			for i := 0; i < n; i++ {
				for _, c := range active {
					if yb32[i*k+c] != yb64[i*k+c] {
						t.Fatalf("MulMatCols k=%d cols=%v y[%d,%d]: %v vs widened %v",
							k, cols, i, c, yb32[i*k+c], yb64[i*k+c])
					}
				}
			}
		}
		if k == 1 {
			m.MulVec(xb, y32)
			for i := range y32 {
				if yb32[i] != y32[i] {
					t.Fatalf("MulMatCols k=1 y[%d]: %v vs MulVec %v", i, yb32[i], y32[i])
				}
			}
		}
	}
}

func TestCSR32ShapePanics(t *testing.T) {
	m := NewCSR32(tri4())
	for name, fn := range map[string]func(){
		"MulVec":      func() { m.MulVec(make([]float64, 3), make([]float64, 4)) },
		"MulVecTrans": func() { m.MulVecTrans(make([]float64, 3), make([]float64, 4)) },
		"MulMatCols":  func() { m.MulMatCols(make([]float64, 4), make([]float64, 8), 2, nil) },
		"MaxRelError": func() { m.MaxRelError(make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched shapes", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzCSR32RoundTrip feeds arbitrary float64 bit patterns through the
// f64 → f32 → f64 narrowing round trip: the widened value must be exactly
// the one-rounding float32 image of the source (NaN stays NaN, overflow
// goes to ±Inf), in-range values must stay within one float32 ulp
// relatively, and the mixed-precision SpMV must match the widened
// full-precision one bitwise.
func FuzzCSR32RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(bits>>s))
			}
		}
		return b
	}
	f.Add(seed(1.0, -2.5, 1e-40, 3.5e38, math.Pi))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), -0.0))
	f.Add(seed(math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 64 {
			n = 64
		}
		vals := make([]float64, n)
		for i := range vals {
			var bits uint64
			for s := 0; s < 8; s++ {
				bits |= uint64(data[i*8+s]) << (8 * s)
			}
			vals[i] = math.Float64frombits(bits)
		}
		// One dense row holds the values; structure is trivially valid.
		src := &CSR{Rows: 1, Cols: n, RowPtr: []int{0, n}, ColIdx: make([]int, n), Val: vals}
		for i := range src.ColIdx {
			src.ColIdx[i] = i
		}
		m := NewCSR32(src)
		back := m.Widen()
		for i, v := range vals {
			got := back.Val[i]
			if math.IsNaN(v) {
				if !math.IsNaN(got) {
					t.Fatalf("Val[%d]: NaN widened to %v", i, got)
				}
				continue
			}
			if want := float64(float32(v)); got != want || math.Signbit(got) != math.Signbit(want) {
				t.Fatalf("Val[%d]: round trip %v, want %v (src %v)", i, got, want, v)
			}
			// In the normal float32 range the round trip is a single rounding.
			if a := math.Abs(v); a >= math.SmallestNonzeroFloat32*float64(1<<23) && a <= math.MaxFloat32 {
				if rel := math.Abs(got-v) / a; rel > 1.0/(1<<24) {
					t.Fatalf("Val[%d]: relative error %g exceeds 2^-24 (src %v)", i, rel, v)
				}
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		y32, y64 := make([]float64, 1), make([]float64, 1)
		m.MulVec(x, y32)
		back.MulVec(x, y64)
		if y32[0] != y64[0] && !(math.IsNaN(y32[0]) && math.IsNaN(y64[0])) {
			t.Fatalf("MulVec: mixed %v vs widened %v", y32[0], y64[0])
		}
	})
}
