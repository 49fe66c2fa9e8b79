package la

import (
	"math"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("entry %d = %v, want 0", i, v)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set failed")
	}
	m.Add(1, 1, 1)
	if m.At(1, 1) != 10 {
		t.Fatalf("Add failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d,%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", dst)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	Mul(c, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equalish(want, 0) {
		t.Fatalf("Mul = %v want %v", c, want)
	}
}

func TestMulIdentityLeavesMatrix(t *testing.T) {
	a := FromRows([][]float64{{1, -2, 3}, {0, 4, -1}, {2, 2, 2}})
	c := NewMatrix(3, 3)
	Mul(c, Identity(3), a)
	if !c.Equalish(a, 0) {
		t.Fatalf("I*A != A")
	}
	Mul(c, a, Identity(3))
	if !c.Equalish(a, 0) {
		t.Fatalf("A*I != A")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at)
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := a.NormInf(); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
	if got := a.Norm1(); got != 6 {
		t.Fatalf("Norm1 = %v, want 6", got)
	}
	if got := a.NormFrob(); math.Abs(got-math.Sqrt(30)) > 1e-15 {
		t.Fatalf("NormFrob = %v", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestCloneScaleAddScaled(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Scale(2)
	if a.At(0, 0) != 1 {
		t.Fatalf("Clone aliases original")
	}
	if b.At(1, 1) != 8 {
		t.Fatalf("Scale failed: %v", b)
	}
	b.AddScaled(-2, a)
	if b.MaxAbs() != 0 {
		t.Fatalf("AddScaled: want zero, got %v", b)
	}
}

func TestSetSubmatrix(t *testing.T) {
	m := NewMatrix(4, 4)
	s := FromRows([][]float64{{1, 2}, {3, 4}})
	m.SetSubmatrix(1, 2, s)
	if m.At(1, 2) != 1 || m.At(2, 3) != 4 || m.At(0, 0) != 0 {
		t.Fatalf("SetSubmatrix wrong:\n%v", m)
	}
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatalf("Row should be a view")
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	dst := make([]float64, 3)
	AxpyTo(dst, 2, a, b)
	if dst[0] != 6 || dst[2] != 12 {
		t.Fatalf("AxpyTo = %v", dst)
	}
	Axpy(-2, a, dst)
	if dst[0] != 4 || dst[2] != 6 {
		t.Fatalf("Axpy = %v", dst)
	}
	SubTo(dst, b, a)
	if dst[0] != 3 || dst[2] != 3 {
		t.Fatalf("SubTo = %v", dst)
	}
	if NormInfVec([]float64{-5, 2}) != 5 {
		t.Fatalf("NormInfVec wrong")
	}
	if math.Abs(Norm2Vec([]float64{3, 4})-5) > 1e-15 {
		t.Fatalf("Norm2Vec wrong")
	}
	if !AllFinite(a) {
		t.Fatalf("AllFinite false negative")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatalf("AllFinite false positive")
	}
}

func TestWeightedRMS(t *testing.T) {
	// err = [1, 1], ref = [0, 0], atol=1, rtol=0 -> rms = 1.
	got := WeightedRMS([]float64{1, 1}, []float64{0, 0}, 1, 0)
	if math.Abs(got-1) > 1e-15 {
		t.Fatalf("WeightedRMS = %v, want 1", got)
	}
	if WeightedRMS(nil, nil, 1, 1) != 0 {
		t.Fatalf("WeightedRMS on empty should be 0")
	}
}
