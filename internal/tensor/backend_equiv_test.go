package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/neurosym/nsbench/internal/backend"
)

// The chunked kernels promise bit-identical results on every Runner. These
// property tests drive each kernel family with random shapes, contents,
// and worker counts and require exact float32 equality between the serial
// path and a parallel backend.

// bitsEqual reports exact element equality (NaN-safe via bit comparison is
// unnecessary here: inputs are finite by construction).
func bitsEqual(t *testing.T, name string, serial, parallel *Tensor) bool {
	t.Helper()
	if !serial.SameShape(parallel) {
		t.Errorf("%s: shape %v vs %v", name, serial.Shape(), parallel.Shape())
		return false
	}
	for i, v := range serial.Data() {
		if parallel.Data()[i] != v {
			t.Errorf("%s: element %d differs: serial %v parallel %v", name, i, v, parallel.Data()[i])
			return false
		}
	}
	return true
}

// randTensor fills a tensor with reproducible values drawn from rng.
func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	out := New(shape...)
	for i := range out.Data() {
		out.Data()[i] = float32(rng.NormFloat64())
	}
	return out
}

// workerPool builds parallel backends of assorted widths once for all
// property iterations.
var equivWorkers = []int{2, 3, 4, 7}

func withBackends(t *testing.T, f func(t *testing.T, be *backend.Parallel)) {
	t.Helper()
	for _, w := range equivWorkers {
		be := backend.NewParallel(w)
		f(t, be)
		be.Close()
		if t.Failed() {
			t.Fatalf("mismatch at %d workers", w)
		}
	}
}

func equivCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(seed))}
}

func TestMatMulBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(m8, k8, n8 uint8, seed int64) bool {
			m, k, n := int(m8%40)+1, int(k8%40)+1, int(n8%40)+1
			rng := rand.New(rand.NewSource(seed))
			a, b := randTensor(rng, m, k), randTensor(rng, k, n)
			return bitsEqual(t, "MatMul", MatMulOn(Serial, a, b), MatMulOn(be, a, b))
		}
		if err := quick.Check(prop, equivCfg(1)); err != nil {
			t.Error(err)
		}
	})
}

func TestMatVecBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(m8, k8 uint8, seed int64) bool {
			m, k := int(m8%64)+1, int(k8%64)+1
			rng := rand.New(rand.NewSource(seed))
			a, x := randTensor(rng, m, k), randTensor(rng, k)
			return bitsEqual(t, "MatVec", MatVecOn(Serial, a, x), MatVecOn(be, a, x))
		}
		if err := quick.Check(prop, equivCfg(2)); err != nil {
			t.Error(err)
		}
	})
}

func TestConv2DBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(n8, cin8, cout8, hw8 uint8, seed int64) bool {
			n, cin, cout := int(n8%3)+1, int(cin8%4)+1, int(cout8%6)+1
			hw := int(hw8%12) + 3
			rng := rand.New(rand.NewSource(seed))
			in := randTensor(rng, n, cin, hw, hw)
			w := randTensor(rng, cout, cin, 3, 3)
			bias := randTensor(rng, cout)
			return bitsEqual(t, "Conv2D",
				Conv2DKernelOn(Serial, KernelAuto, in, w, bias, 1, 1),
				Conv2DKernelOn(be, KernelAuto, in, w, bias, 1, 1))
		}
		if err := quick.Check(prop, equivCfg(4)); err != nil {
			t.Error(err)
		}
	})
}

func TestPoolingBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(n8, c8, hw8 uint8, seed int64) bool {
			n, c, hw := int(n8%3)+1, int(c8%5)+1, int(hw8%12)+4
			rng := rand.New(rand.NewSource(seed))
			in := randTensor(rng, n, c, hw, hw)
			ok := bitsEqual(t, "MaxPool2D", MaxPool2DOn(Serial, in, 2, 2), MaxPool2DOn(be, in, 2, 2))
			return ok && bitsEqual(t, "GlobalAvgPool2D", GlobalAvgPool2DOn(Serial, in), GlobalAvgPool2DOn(be, in))
		}
		if err := quick.Check(prop, equivCfg(5)); err != nil {
			t.Error(err)
		}
	})
}

func TestEltwiseBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(n16 uint16, seed int64) bool {
			n := int(n16%50000) + 1
			rng := rand.New(rand.NewSource(seed))
			a, b := randTensor(rng, n), randTensor(rng, n)
			ok := bitsEqual(t, "Add", AddOn(Serial, a, b), AddOn(be, a, b))
			ok = ok && bitsEqual(t, "Mul", MulOn(Serial, a, b), MulOn(be, a, b))
			ok = ok && bitsEqual(t, "Sigmoid", SigmoidOn(Serial, a), SigmoidOn(be, a))
			return ok && bitsEqual(t, "ReLU", ReLUOn(Serial, a), ReLUOn(be, a))
		}
		if err := quick.Check(prop, equivCfg(6)); err != nil {
			t.Error(err)
		}
	})
}

func TestReduceBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		prop := func(o8, n8, i8, ax8 uint8, seed int64) bool {
			outer, n, inner := int(o8%12)+1, int(n8%12)+1, int(i8%12)+1
			axis := int(ax8 % 3)
			rng := rand.New(rand.NewSource(seed))
			a := randTensor(rng, outer, n, inner)
			ok := bitsEqual(t, "SumAxis", SumAxisOn(Serial, a, axis), SumAxisOn(be, a, axis))
			ok = ok && bitsEqual(t, "MeanAxis", MeanAxisOn(Serial, a, axis), MeanAxisOn(be, a, axis))
			ok = ok && bitsEqual(t, "MaxAxis", MaxAxisOn(Serial, a, axis), MaxAxisOn(be, a, axis))
			return ok && bitsEqual(t, "Softmax", SoftmaxOn(Serial, a), SoftmaxOn(be, a))
		}
		if err := quick.Check(prop, equivCfg(7)); err != nil {
			t.Error(err)
		}
	})
}

func TestCircularConvBitIdenticalAcrossBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		// Cover the direct path (short, non-power-of-two) and the FFT path
		// (power-of-two above the threshold).
		for _, n := range []int{17, 63, 128, 1024} {
			rng := rand.New(rand.NewSource(int64(n)))
			a, b := randTensor(rng, n), randTensor(rng, n)
			if !bitsEqual(t, "CircularConv", CircularConvOn(Serial, a, b), CircularConvOn(be, a, b)) {
				return
			}
		}
	})
}
