package tensor

import (
	"math"
	"testing"
)

func almostEq(a, b, eps float32) bool {
	d := a - b
	return d <= eps && d >= -eps
}

func TestNewShapeAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Rank() != 3 || a.Size() != 24 || a.Bytes() != 96 {
		t.Fatalf("unexpected rank/size/bytes: %d %d %d", a.Rank(), a.Size(), a.Bytes())
	}
	if a.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", a.Dim(1))
	}
}

func TestScalarTensor(t *testing.T) {
	s := Scalar(2.5)
	if s.Rank() != 0 || s.Item() != 2.5 {
		t.Fatalf("Scalar: rank=%d item=%v", s.Rank(), s.Item())
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	a.Set(9, 0, 1)
	if a.At(0, 1) != 9 {
		t.Fatalf("Set/At roundtrip failed")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestIDsUnique(t *testing.T) {
	a, b := New(2), New(2)
	if a.ID() == b.ID() {
		t.Fatal("tensor IDs must be unique")
	}
	r := a.Reshape(2)
	if r.ID() != a.ID() {
		t.Fatal("Reshape must preserve the value identity")
	}
	if a.Clone().ID() == a.ID() {
		t.Fatal("Clone must mint a fresh ID")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not alias storage")
	}
}

func TestReshapeAliasesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Set(7, 2)
	if a.At(1, 0) != 7 {
		t.Fatal("Reshape must alias storage")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(7)
}

func TestMinMaxSumMeanNorm(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4, 0}, 4)
	if a.Min() != -1 || a.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.Sum() != 6 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	want := float32(math.Sqrt(9 + 1 + 16))
	if !almostEq(a.Norm(), want, 1e-5) {
		t.Fatalf("Norm = %v, want %v", a.Norm(), want)
	}
}

func TestSparsity(t *testing.T) {
	a := FromSlice([]float32{0, 0, 1, 0.0001, -2, 0, 0, 0}, 8)
	got := a.Sparsity(1e-3)
	if got != 6.0/8 {
		t.Fatalf("Sparsity = %v, want 0.75", got)
	}
}

func TestAllFinite(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	if !a.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	a.Set(float32(math.NaN()), 0)
	if a.AllFinite() {
		t.Fatal("NaN not detected")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	cases := []struct {
		name string
		got  *Tensor
		want []float32
	}{
		{"Add", Add(a, b), []float32{5, 7, 9}},
		{"Sub", Sub(a, b), []float32{-3, -3, -3}},
		{"Mul", Mul(a, b), []float32{4, 10, 18}},
		{"Minimum", Minimum(a, b), []float32{1, 2, 3}},
		{"Maximum", Maximum(a, b), []float32{4, 5, 6}},
		{"AddScalar", AddScalar(a, 1), []float32{2, 3, 4}},
		{"MulScalar", MulScalar(a, 2), []float32{2, 4, 6}},
		{"Neg", Neg(a), []float32{-1, -2, -3}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			if !almostEq(c.got.Data()[i], w, 1e-6) {
				t.Errorf("%s[%d] = %v, want %v", c.name, i, c.got.Data()[i], w)
			}
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2), New(3))
}

func TestActivations(t *testing.T) {
	a := FromSlice([]float32{-2, 0, 2}, 3)
	r := ReLU(a)
	if r.At(0) != 0 || r.At(1) != 0 || r.At(2) != 2 {
		t.Fatalf("ReLU = %v", r.Data())
	}
	s := Sigmoid(Zeros(1))
	if !almostEq(s.At(0), 0.5, 1e-6) {
		t.Fatalf("Sigmoid(0) = %v", s.At(0))
	}
	th := Tanh(Zeros(1))
	if th.At(0) != 0 {
		t.Fatalf("Tanh(0) = %v", th.At(0))
	}
}

func TestSignAbsClamp(t *testing.T) {
	a := FromSlice([]float32{-3, 0, 5}, 3)
	s := Sign(a)
	if s.At(0) != -1 || s.At(1) != 0 || s.At(2) != 1 {
		t.Fatalf("Sign = %v", s.Data())
	}
	ab := Abs(a)
	if ab.At(0) != 3 || ab.At(2) != 5 {
		t.Fatalf("Abs = %v", ab.Data())
	}
	c := Clamp(a, -1, 1)
	if c.At(0) != -1 || c.At(1) != 0 || c.At(2) != 1 {
		t.Fatalf("Clamp = %v", c.Data())
	}
}

func TestWhereGreaterEqual(t *testing.T) {
	a := FromSlice([]float32{10, 20}, 2)
	b := FromSlice([]float32{30, 40}, 2)
	g := Greater(a, b)
	if g.At(0) != 0 || g.At(1) != 0 {
		t.Fatalf("Greater = %v", g.Data())
	}
}

func TestDotAXPYCosine(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := b.Clone()
	AXPY(2, a, y)
	if y.At(0) != 6 || y.At(2) != 12 {
		t.Fatalf("AXPY = %v", y.Data())
	}
	if !almostEq(CosineSimilarity(a, a), 1, 1e-6) {
		t.Fatalf("self cosine = %v", CosineSimilarity(a, a))
	}
	if CosineSimilarity(a, Zeros(3)) != 0 {
		t.Fatal("cosine with zero vector should be 0")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulPropagatesNonFinite(t *testing.T) {
	// IEEE 0·Inf is NaN. A zero-skipping GEMM would silently drop the NaN
	// that MatVec produces for the same operands; the kernels must agree.
	inf := float32(math.Inf(1))
	a := FromSlice([]float32{0, 1}, 1, 2)
	b := FromSlice([]float32{inf, 2, 3, 4}, 2, 2)
	mm := MatMul(a, b) // row 0: [0·Inf + 1·3, 0·2 + 1·4]
	if !math.IsNaN(float64(mm.Data()[0])) {
		t.Fatalf("MatMul[0] = %v, want NaN from 0*Inf", mm.Data()[0])
	}
	if mm.Data()[1] != 4 {
		t.Fatalf("MatMul[1] = %v, want 4", mm.Data()[1])
	}
	mv := MatVec(FromSlice([]float32{inf, 3}, 1, 2), FromSlice([]float32{0, 1}, 2))
	if !math.IsNaN(float64(mv.Data()[0])) {
		t.Fatalf("MatVec[0] = %v, want NaN from Inf*0", mv.Data()[0])
	}
}

func TestMatMulIdentity(t *testing.T) {
	g := NewRNG(1)
	a := g.Normal(0, 1, 5, 5)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(1, i, i)
	}
	c := MatMul(a, eye)
	for i := range a.Data() {
		if !almostEq(c.Data()[i], a.Data()[i], 1e-5) {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{1, 1}, 2)
	y := MatVec(a, x)
	if y.At(0) != 3 || y.At(1) != 7 {
		t.Fatalf("MatVec = %v", y.Data())
	}
}

func TestConv2DKnown(t *testing.T) {
	// 1x1x3x3 input, 1x1x2x2 kernel of ones, stride 1, no padding:
	// each output is the sum of a 2x2 window.
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := Ones(1, 1, 2, 2)
	out := Conv2D(in, w, nil, 1, 0)
	want := []float32{12, 16, 24, 28}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("Conv2D[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestConv2DPaddingAndBias(t *testing.T) {
	in := Ones(1, 1, 2, 2)
	w := Ones(1, 1, 3, 3)
	bias := FromSlice([]float32{10}, 1)
	out := Conv2D(in, w, bias, 1, 1)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("padded output shape = %v", out.Shape())
	}
	// Center-of-corner window covers all 4 ones.
	if out.At(0, 0, 0, 0) != 14 {
		t.Fatalf("Conv2D with pad+bias = %v", out.At(0, 0, 0, 0))
	}
}

func TestConv2DStride(t *testing.T) {
	in := Ones(1, 1, 4, 4)
	w := Ones(1, 1, 2, 2)
	out := Conv2D(in, w, nil, 2, 0)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("strided output shape = %v", out.Shape())
	}
	for _, v := range out.Data() {
		if v != 4 {
			t.Fatalf("strided conv value = %v, want 4", v)
		}
	}
}

func TestPooling(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	mp := MaxPool2D(in, 2, 2)
	if mp.At(0, 0, 0, 0) != 6 || mp.At(0, 0, 1, 1) != 16 {
		t.Fatalf("MaxPool = %v", mp.Data())
	}
	gap := GlobalAvgPool2D(in)
	if !almostEq(gap.At(0, 0), 8.5, 1e-6) {
		t.Fatalf("GlobalAvgPool = %v", gap.Data())
	}
}

func TestReduceAxes(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	s0 := SumAxis(a, 0)
	if s0.At(0) != 5 || s0.At(1) != 7 || s0.At(2) != 9 {
		t.Fatalf("SumAxis0 = %v", s0.Data())
	}
	s1 := SumAxis(a, 1)
	if s1.At(0) != 6 || s1.At(1) != 15 {
		t.Fatalf("SumAxis1 = %v", s1.Data())
	}
	m := MeanAxis(a, 1)
	if m.At(0) != 2 || m.At(1) != 5 {
		t.Fatalf("MeanAxis = %v", m.Data())
	}
	mx := MaxAxis(a, 0)
	if mx.At(0) != 4 || mx.At(2) != 6 {
		t.Fatalf("MaxAxis = %v", mx.Data())
	}
	mn := MinAxis(a, 1)
	if mn.At(0) != 1 || mn.At(1) != 4 {
		t.Fatalf("MinAxis = %v", mn.Data())
	}
}

func TestArgMax(t *testing.T) {
	a := FromSlice([]float32{1, 9, 3}, 3)
	if ArgMax(a) != 1 {
		t.Fatalf("ArgMax = %d", ArgMax(a))
	}
}

func TestSoftmaxProperties(t *testing.T) {
	g := NewRNG(7)
	a := g.Normal(0, 3, 4, 10)
	s := Softmax(a)
	for r := 0; r < 4; r++ {
		var sum float32
		for c := 0; c < 10; c++ {
			v := s.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-4) {
			t.Fatalf("softmax row sum = %v", sum)
		}
	}
}

func TestNormalizeAndL1(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	n := Normalize(a)
	if !almostEq(n.Norm(), 1, 1e-6) {
		t.Fatalf("Normalize norm = %v", n.Norm())
	}
	l := NormalizeL1(a)
	if !almostEq(l.Sum(), 1, 1e-6) {
		t.Fatalf("NormalizeL1 sum = %v", l.Sum())
	}
	z := Normalize(Zeros(3))
	if z.Norm() != 0 {
		t.Fatal("Normalize of zero must stay zero")
	}
}

func TestTransposePermute(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	tr := Transpose(a)
	if tr.Dim(0) != 3 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v %v", tr.Shape(), tr.Data())
	}
	p := PermuteOn(Serial, a, 1, 0)
	for i := range tr.Data() {
		if p.Data()[i] != tr.Data()[i] {
			t.Fatal("Permute(1,0) != Transpose")
		}
	}
	b := NewRNG(3).Normal(0, 1, 2, 3, 4)
	pp := PermuteOn(Serial, PermuteOn(Serial, b, 2, 0, 1), 1, 2, 0)
	for i := range b.Data() {
		if pp.Data()[i] != b.Data()[i] {
			t.Fatal("Permute roundtrip failed")
		}
	}
}

func TestConcatStackSlice(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4}, 1, 2)
	c0 := Concat(0, a, b)
	if c0.Dim(0) != 2 || c0.At(1, 1) != 4 {
		t.Fatalf("Concat axis0 = %v %v", c0.Shape(), c0.Data())
	}
	c1 := Concat(1, a, b)
	if c1.Dim(1) != 4 || c1.At(0, 3) != 4 {
		t.Fatalf("Concat axis1 = %v %v", c1.Shape(), c1.Data())
	}
	st := StackOn(Serial, a.Reshape(a.Size()), b.Reshape(b.Size()))
	if st.Dim(0) != 2 || st.At(1, 0) != 3 {
		t.Fatalf("Stack = %v", st.Data())
	}
	sl := Slice(c0, 1, 2)
	if sl.Dim(0) != 1 || sl.At(0, 0) != 3 {
		t.Fatalf("Slice = %v", sl.Data())
	}
}

func TestGatherMaskedSelect(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	gth := Gather(a, []int{2, 0, 2})
	if gth.Dim(0) != 3 || gth.At(0, 0) != 5 || gth.At(1, 1) != 2 {
		t.Fatalf("Gather = %v", gth.Data())
	}
	mask := FromSlice([]float32{1, 0, 0, 1, 1, 0}, 3, 2)
	ms := MaskedSelectOn(Serial, a, mask)
	if ms.Size() != 3 || ms.At(0) != 1 || ms.At(1) != 4 || ms.At(2) != 5 {
		t.Fatalf("MaskedSelect = %v", ms.Data())
	}
	empty := MaskedSelectOn(Serial, a, Zeros(3, 2))
	if empty.Size() != 0 {
		t.Fatalf("MaskedSelect empty = %v", empty.Data())
	}
}

func TestPad2DRollOneHot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	r := RollOn(Serial, a, 1)
	if r.At(0) != 3 || r.At(1) != 1 {
		t.Fatalf("Roll = %v", r.Data())
	}
	rn := RollOn(Serial, a, -1)
	if rn.At(0) != 2 {
		t.Fatalf("Roll(-1) = %v", rn.Data())
	}
	oh := OneHot(2, 4)
	if oh.At(2) != 1 || oh.Sum() != 1 {
		t.Fatalf("OneHot = %v", oh.Data())
	}
}

func TestCircularConvKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	c := CircularConv(a, b)
	// out[0]=1*4+2*6+3*5=31, out[1]=1*5+2*4+3*6=31, out[2]=1*6+2*5+3*4=28
	want := []float32{31, 31, 28}
	for i, w := range want {
		if !almostEq(c.Data()[i], w, 1e-4) {
			t.Fatalf("CircularConv[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestCircularConvFFTMatchesDirect(t *testing.T) {
	g := NewRNG(11)
	n := 256 // power of two, above fftThreshold
	a := g.Normal(0, 1, n)
	b := g.Normal(0, 1, n)
	direct := circularConvDirect(Serial, a, b)
	viaFFT := circularConvFFT(Serial, a, b)
	for i := 0; i < n; i++ {
		if !almostEq(direct.Data()[i], viaFFT.Data()[i], 1e-3) {
			t.Fatalf("FFT path diverges at %d: %v vs %v", i, direct.Data()[i], viaFFT.Data()[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Normal(0, 1, 16)
	b := NewRNG(42).Normal(0, 1, 16)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("same seed must give same draws")
		}
	}
	c := NewRNG(43).Normal(0, 1, 16)
	same := true
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical draws")
	}
}

func TestBipolarAndBinary(t *testing.T) {
	g := NewRNG(5)
	b := g.Bipolar(1000)
	for _, v := range b.Data() {
		if v != 1 && v != -1 {
			t.Fatalf("Bipolar drew %v", v)
		}
	}
}

func TestCostFunctions(t *testing.T) {
	if FlopsMatMul(2, 3, 4) != 48 {
		t.Fatalf("FlopsMatMul = %d", FlopsMatMul(2, 3, 4))
	}
	if BytesMatMul(2, 3, 4) != 4*(6+12+8) {
		t.Fatalf("BytesMatMul = %d", BytesMatMul(2, 3, 4))
	}
	if FlopsConv2D(1, 3, 8, 5, 5, 3, 3) != 2*8*25*27 {
		t.Fatalf("FlopsConv2D = %d", FlopsConv2D(1, 3, 8, 5, 5, 3, 3))
	}
	if FlopsCircularConvDirect(10) != 200 {
		t.Fatalf("FlopsCircularConvDirect = %d", FlopsCircularConvDirect(10))
	}
	if FlopsCircularConvFFT(8) != 3*5*8*3+48 {
		t.Fatalf("FlopsCircularConvFFT = %d", FlopsCircularConvFFT(8))
	}
}
