package nn

import (
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

func TestLinearForwardShape(t *testing.T) {
	g := tensor.NewRNG(1)
	l := NewLinear(g, "fc", 8, 4, true)
	e := ops.New()
	x := g.Normal(0, 1, 3, 8)
	y := l.Forward(e, x)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("Linear output shape = %v", y.Shape())
	}
	// Check against manual compute for the first element.
	var want float64
	for k := 0; k < 8; k++ {
		want += float64(x.At(0, k)) * float64(l.W.At(0, k))
	}
	want += float64(l.B.At(0))
	if d := float64(y.At(0, 0)) - want; d > 1e-4 || d < -1e-4 {
		t.Fatalf("Linear value = %v, want %v", y.At(0, 0), want)
	}
}

func TestLinearNoBias(t *testing.T) {
	g := tensor.NewRNG(2)
	l := NewLinear(g, "fc", 4, 2, false)
	e := ops.New()
	y := l.Forward(e, tensor.Ones(1, 4))
	if y.Size() != 2 {
		t.Fatalf("output size = %d", y.Size())
	}
	if l.B != nil {
		t.Fatal("bias should be nil")
	}
}

func TestLinearRecordsMatMul(t *testing.T) {
	g := tensor.NewRNG(3)
	l := NewLinear(g, "fc", 4, 4, true)
	e := ops.New()
	l.Forward(e, tensor.Ones(2, 4))
	found := false
	for _, ev := range e.Trace().Events {
		if ev.Category == trace.MatMul {
			found = true
		}
	}
	if !found {
		t.Fatal("Linear forward must record a MatMul event")
	}
}

func TestConv2dLayer(t *testing.T) {
	g := tensor.NewRNG(4)
	c := NewConv2d(g, "conv", 3, 8, 3, 1, 1)
	e := ops.New()
	x := g.Normal(0, 1, 2, 3, 8, 8)
	y := c.Forward(e, x)
	if y.Dim(0) != 2 || y.Dim(1) != 8 || y.Dim(2) != 8 {
		t.Fatalf("conv output shape = %v", y.Shape())
	}
	if e.Trace().Events[0].Category != trace.Convolution {
		t.Fatal("conv must record a Convolution event")
	}
}

func TestBatchNormAffine(t *testing.T) {
	g := tensor.NewRNG(5)
	bn := NewBatchNorm2d(g, "bn", 2)
	e := ops.New()
	x := tensor.Ones(1, 2, 2, 2)
	y := bn.Forward(e, x)
	want0 := bn.Scale.At(0) + bn.Bias.At(0)
	if d := y.At(0, 0, 0, 0) - want0; d > 1e-5 || d < -1e-5 {
		t.Fatalf("batchnorm value = %v, want %v", y.At(0, 0, 0, 0), want0)
	}
}

func TestMLPAndSequential(t *testing.T) {
	g := tensor.NewRNG(6)
	mlp := NewMLP(g, "mlp", 8, 16, 4)
	e := ops.New()
	y := mlp.Forward(e, g.Normal(0, 1, 5, 8))
	if y.Dim(0) != 5 || y.Dim(1) != 4 {
		t.Fatalf("MLP output = %v", y.Shape())
	}
	// Two linears and one ReLU.
	var relus, mms int
	for _, ev := range e.Trace().Events {
		if ev.Name == "ReLU" {
			relus++
		}
		if ev.Name == "MatMul" {
			mms++
		}
	}
	if relus != 1 || mms != 2 {
		t.Fatalf("MLP ops: relus=%d matmuls=%d", relus, mms)
	}
}

func TestRegisterParams(t *testing.T) {
	g := tensor.NewRNG(7)
	mlp := NewMLP(g, "mlp", 4, 4)
	e := ops.New()
	mlp.Register(e)
	// One 4→4 linear layer: 16 float32 weights and 4 biases.
	if got := e.Trace().ParamBytesByKind()["weight"]; got != 80 {
		t.Fatalf("registered %d bytes, want 80", got)
	}
}

func TestResidualBlockShapePreserving(t *testing.T) {
	g := tensor.NewRNG(8)
	r := NewResidualBlock(g, "res", 4)
	e := ops.New()
	x := g.Normal(0, 1, 1, 4, 6, 6)
	y := r.Forward(e, x)
	if !y.SameShape(x) {
		t.Fatalf("residual block changed shape: %v", y.Shape())
	}
}

func TestCNNEncoder(t *testing.T) {
	g := tensor.NewRNG(9)
	cnn := NewCNN(g, "enc", CNNConfig{InChannels: 1, InSize: 16, Channels: []int{4, 8}, OutDim: 10})
	e := ops.New()
	x := g.Normal(0, 1, 2, 1, 16, 16)
	y := cnn.Forward(e, x)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("CNN output = %v", y.Shape())
	}
	var convs int
	for _, ev := range e.Trace().Events {
		if ev.Category == trace.Convolution {
			convs++
		}
	}
	if convs != 2 {
		t.Fatalf("CNN conv events = %d, want 2", convs)
	}
}

func TestCNNResidualVariant(t *testing.T) {
	g := tensor.NewRNG(10)
	cnn := NewCNN(g, "enc", CNNConfig{InChannels: 1, InSize: 8, Channels: []int{4}, Residual: true})
	e := ops.New()
	y := cnn.Forward(e, g.Normal(0, 1, 1, 1, 8, 8))
	if y.Dim(1) != 4 {
		t.Fatalf("raw-feature output = %v", y.Shape())
	}
	cnn.Register(e)
	// Stage conv 4×1×3×3 + 4 bias, its batch norm 2×4, and the residual
	// block's two 4×4×3×3 convs with biases and two batch norms: 360
	// float32 parameters.
	var n int64
	for _, p := range e.Trace().Params() {
		n += p.Bytes
	}
	if n != 360*4 {
		t.Fatalf("registered %d bytes, want %d", n, 360*4)
	}
}

func TestCNNDeterministicAcrossSeeds(t *testing.T) {
	build := func(seed int64) *tensor.Tensor {
		g := tensor.NewRNG(seed)
		cnn := NewCNN(g, "enc", CNNConfig{InChannels: 1, InSize: 8, Channels: []int{4}, OutDim: 3})
		e := ops.New()
		return cnn.Forward(e, tensor.Ones(1, 1, 8, 8))
	}
	a, b := build(42), build(42)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("same seed must give identical forward pass")
		}
	}
}
