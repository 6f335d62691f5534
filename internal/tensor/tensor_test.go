package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.NumDims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: idx = (2*4+1)*5+3 = 48.
	if x.Data[48] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
}

func TestFromSlicePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesBuffer(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share the underlying buffer")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("bad reshaped dims %v", y.Shape())
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub wrong: %v", got)
	}
}

func TestSumMeanDotNorms(t *testing.T) {
	a := FromSlice([]float64{3, -4}, 2)
	if got := Dot(a, a); got != 25 {
		t.Fatalf("Dot = %v", got)
	}
	if !almostEq(a.L2Norm(), 5, 1e-12) {
		t.Fatalf("L2 = %v", a.L2Norm())
	}
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float64{-2, 0.5, 3}, 3)
	a.ClampInPlace(0, 1)
	if a.Data[0] != 0 || a.Data[1] != 0.5 || a.Data[2] != 1 {
		t.Fatalf("Clamp wrong: %v", a.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposeVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 6)
	b := Randn(rng, 1, 6, 5)
	want := MatMul(a, b)

	// Aᵀ·B where we pass A already transposed.
	at := New(6, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	got := MatMulTransA(at, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}

	// A·Bᵀ where we pass B already transposed.
	bt := New(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	got2 := MatMulTransB(a, bt)
	for i := range want.Data {
		if !almostEq(got2.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
}

func TestArgMaxRow(t *testing.T) {
	a := FromSlice([]float64{0, 5, 2, 9, 1, 3}, 2, 3)
	if a.ArgMaxRow(0) != 1 {
		t.Fatalf("ArgMaxRow(0) = %d", a.ArgMaxRow(0))
	}
	if a.ArgMaxRow(1) != 0 {
		t.Fatalf("ArgMaxRow(1) = %d", a.ArgMaxRow(1))
	}
}

// Property: (A·B)·C == A·(B·C) for random small matrices.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c := Randn(rng, 1, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub undoes it.
func TestLinearAlgebraProperties(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a := Randn(r, 1, n)
		b := Randn(r, 1, n)
		ab := Add(a, b)
		ba := Add(b, a)
		for i := range ab.Data {
			if ab.Data[i] != ba.Data[i] {
				return false
			}
		}
		back := Sub(ab, b)
		for i := range back.Data {
			if !almostEq(back.Data[i], a.Data[i], 1e-12*(1+math.Abs(a.Data[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandnDeterministicBySeed(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(5)), 1, 8)
	b := Randn(rand.New(rand.NewSource(5)), 1, 8)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn must be deterministic for a fixed seed")
		}
	}
}

// Same element count but different shapes must be rejected: (2,3)+(3,2) was
// silently accepted when mustMatch only compared lengths.
func TestElementwiseOpsRejectShapeMismatch(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	for name, f := range map[string]func(){
		"Add":        func() { Add(a, b) },
		"Sub":        func() { Sub(a, b) },
		"Dot":        func() { Dot(a, b) },
		"AddInPlace": func() { a.Clone().AddInPlace(b) },
		"SubInPlace": func() { a.Clone().SubInPlace(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic on shape mismatch (2,3) vs (3,2)", name)
				}
			}()
			f()
		}()
	}
}
