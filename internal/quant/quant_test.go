package quant

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/neurosym/nsbench/internal/tensor"
)

func TestQuantizeRoundTripError(t *testing.T) {
	g := tensor.NewRNG(1)
	x := g.Normal(0, 1, 1000)
	q := Quantize(x)
	// Reconstruction error bounded by one quantization step.
	if e := MaxAbsError(x, q); e > q.Scale {
		t.Fatalf("max error %v exceeds one step %v", e, q.Scale)
	}
	if int64(len(q.Data))*4 != x.Bytes() {
		t.Fatalf("INT8 must be 4x smaller: %d vs %d", len(q.Data), x.Bytes())
	}
}

func TestQuantizeConstantTensor(t *testing.T) {
	x := tensor.Full(3, 8)
	q := Quantize(x)
	d := q.Dequantize()
	for _, v := range d.Data() {
		if v < 2.9 || v > 3.1 {
			t.Fatalf("constant reconstruction = %v", v)
		}
	}
}

func TestQuantizeEmpty(t *testing.T) {
	q := Quantize(tensor.New(0))
	if len(q.Data) != 0 || q.Scale != 1 {
		t.Fatalf("empty quantization = %+v", q)
	}
}

func TestSparseRoundTrip(t *testing.T) {
	x := tensor.FromSlice([]float32{0, 0.5, 0, 0, -0.25, 0, 0, 0}, 8)
	s := ToSparse(x, 1e-6)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	back := s.ToDense()
	for i := range x.Data() {
		if back.Data()[i] != x.Data()[i] {
			t.Fatal("sparse round trip failed")
		}
	}
}

func TestJointSparseMatchesDenseJoint(t *testing.T) {
	a := tensor.FromSlice([]float32{0.9, 0, 0.1}, 3)
	b := tensor.FromSlice([]float32{0, 1, 0, 0}, 4)
	s := JointSparse(ToSparse(a, 0), ToSparse(b, 0))
	if s.N != 12 || s.NNZ() != 2 {
		t.Fatalf("joint sparse = %+v", s)
	}
	d := s.ToDense()
	if d.At(0*4+1) != 0.9 || d.At(2*4+1) != 0.1 {
		t.Fatalf("joint values = %v", d.Data())
	}
}

func TestSavingsFactors(t *testing.T) {
	a := ToSparse(tensor.OneHot(0, 10), 0)
	b := ToSparse(tensor.OneHot(3, 30), 0)
	s := JointSavings(a, b)
	if s.OpsReductionX() != 300 { // 10*30 dense vs 1 sparse op
		t.Fatalf("ops reduction = %v", s.OpsReductionX())
	}
	if s.BytesReductionX() < 10 {
		t.Fatalf("bytes reduction = %v", s.BytesReductionX())
	}
	q := QuantSavings(2700, 4096)
	if r := q.BytesReductionX(); r < 3.9 || r > 4.1 {
		t.Fatalf("quant bytes reduction = %v, want ~4", r)
	}
}

// sparseVecGen drives the property tests.
type sparseVecGen []float32

func (sparseVecGen) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(64)
	v := make(sparseVecGen, n)
	for i := range v {
		if r.Float64() < 0.2 { // mostly zero, like PMFs
			v[i] = float32(r.NormFloat64())
		}
	}
	return reflect.ValueOf(v)
}

// The sparse joint that Recommendation 7 times must equal the dense
// outer product on random mostly-zero PMF-like vectors.
func TestPropSparseDenseAgree(t *testing.T) {
	f := func(av, bv sparseVecGen) bool {
		a := tensor.FromSlice(append([]float32(nil), av...), len(av))
		b := tensor.FromSlice(append([]float32(nil), bv...), len(bv))
		got := JointSparse(ToSparse(a, 0), ToSparse(b, 0)).ToDense()
		for i, x := range av {
			for j, y := range bv {
				if got.Data()[i*len(bv)+j] != x*y {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropQuantErrorBounded(t *testing.T) {
	f := func(v sparseVecGen) bool {
		if len(v) == 0 {
			return true
		}
		x := tensor.FromSlice(append([]float32(nil), v...), len(v))
		q := Quantize(x)
		return MaxAbsError(x, q) <= q.Scale*1.001
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
