package tensor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// smallVec is a bounded random vector for property tests.
type smallVec []float32

func (smallVec) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(32)
	v := make(smallVec, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return reflect.ValueOf(v)
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
}

func TestPropAddCommutative(t *testing.T) {
	f := func(v smallVec) bool {
		a := FromSlice(append([]float32(nil), v...), len(v))
		b := MulScalar(a, 0.5)
		x, y := Add(a, b), Add(b, a)
		for i := range x.Data() {
			if x.Data()[i] != y.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMulDistributesOverAdd(t *testing.T) {
	f := func(v smallVec) bool {
		a := FromSlice(append([]float32(nil), v...), len(v))
		b := AddScalar(a, 1)
		c := MulScalar(a, -0.25)
		lhs := Mul(a, Add(b, c))
		rhs := Add(Mul(a, b), Mul(a, c))
		for i := range lhs.Data() {
			if !almostEq(lhs.Data()[i], rhs.Data()[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropReluIdempotent(t *testing.T) {
	f := func(v smallVec) bool {
		a := FromSlice(append([]float32(nil), v...), len(v))
		once := ReLU(a)
		twice := ReLU(once)
		for i := range once.Data() {
			if once.Data()[i] != twice.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(v smallVec) bool {
		// Build a rectangular matrix from the vector.
		m := len(v)
		a := FromSlice(append([]float32(nil), v...), m, 1)
		tt := Transpose(Transpose(a))
		for i := range a.Data() {
			if tt.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCircularConvCommutative(t *testing.T) {
	f := func(v smallVec) bool {
		n := len(v)
		a := FromSlice(append([]float32(nil), v...), n)
		b := RollOn(Serial, a, 1)
		x, y := CircularConv(a, b), CircularConv(b, a)
		for i := range x.Data() {
			if !almostEq(x.Data()[i], y.Data()[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCircularConvIdentity(t *testing.T) {
	// Convolving with the unit impulse e0 is the identity.
	f := func(v smallVec) bool {
		n := len(v)
		a := FromSlice(append([]float32(nil), v...), n)
		e0 := OneHot(0, n)
		c := CircularConv(a, e0)
		for i := range a.Data() {
			if !almostEq(c.Data()[i], a.Data()[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropRollInverse(t *testing.T) {
	f := func(v smallVec, k int) bool {
		n := len(v)
		a := FromSlice(append([]float32(nil), v...), n)
		r := RollOn(Serial, RollOn(Serial, a, k), -k)
		for i := range a.Data() {
			if r.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxSumsToOne(t *testing.T) {
	f := func(v smallVec) bool {
		a := FromSlice(append([]float32(nil), v...), len(v))
		s := Softmax(a)
		return almostEq(s.Sum(), 1, 1e-4)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropSparsityBounds(t *testing.T) {
	f := func(v smallVec) bool {
		a := FromSlice(append([]float32(nil), v...), len(v))
		s := a.Sparsity(1e-6)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulAssociatesWithIdentity(t *testing.T) {
	f := func(v smallVec) bool {
		n := len(v)
		a := FromSlice(append([]float32(nil), v...), 1, n)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		c := MatMul(a, eye)
		for i := range a.Data() {
			if !almostEq(c.Data()[i], a.Data()[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
