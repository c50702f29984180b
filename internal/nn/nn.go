// Package nn provides neural-network layers on top of the instrumented ops
// engine.
//
// The layers implement inference-time forward passes only: the
// characterization study profiles inference, and a forward pass over
// deterministically seeded weights has the same compute and memory
// behaviour as one over trained weights (see DESIGN.md, substitutions).
package nn

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
)

// Layer is a module with an instrumented forward pass.
type Layer interface {
	// Forward applies the layer to x using the engine e.
	Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor
	// Register records the layer's persistent parameters on the engine's
	// trace for the storage-footprint analysis.
	Register(e *ops.Engine)
}

// Linear is a fully connected layer computing x·Wᵀ + b over a batch.
// Input is (batch × in); output is (batch × out).
type Linear struct {
	Name string
	W    *tensor.Tensor // out × in
	B    *tensor.Tensor // out (may be nil)
	wT   *tensor.Tensor // in × out, cached transpose used by Forward
}

// NewLinear returns a Linear layer with Xavier-initialized weights.
func NewLinear(g *tensor.RNG, name string, in, out int, bias bool) *Linear {
	l := &Linear{
		Name: name,
		W:    g.Xavier(in, out, out, in),
	}
	if bias {
		l.B = g.Uniform(-0.01, 0.01, out)
	}
	l.wT = tensor.Transpose(l.W)
	return l
}

// Forward computes the affine map for a (batch × in) input.
func (l *Linear) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardBatch(e, x, 1)
}

// ForwardBatch computes the affine map for an input stacking `items` row
// blocks (the serving-batch layout): the GEMM accounts the shared weight
// traffic once per item, so the recorded cost is exactly items× one
// block's Forward.
func (l *Linear) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: Linear %q expects rank-2 input, got %v", l.Name, x.Shape()))
	}
	y := e.MatMulBatch(x, l.wT, items)
	if l.B != nil {
		// Broadcast-add bias row-wise: materialize the broadcast so the
		// traffic is accounted.
		rows := make([]*tensor.Tensor, y.Dim(0))
		for i := range rows {
			rows[i] = l.B
		}
		bb := e.Stack(rows...)
		y = e.Add(y, bb)
	}
	return y
}

// Register records the layer parameters.
func (l *Linear) Register(e *ops.Engine) {
	e.RegisterParam(l.Name+".weight", "weight", l.W)
	if l.B != nil {
		e.RegisterParam(l.Name+".bias", "weight", l.B)
	}
}

// SetWeights replaces the layer parameters (e.g. after external training)
// and refreshes the cached transpose used by Forward. bias may be nil.
func (l *Linear) SetWeights(w, bias *tensor.Tensor) {
	l.W = w
	l.B = bias
	l.wT = tensor.Transpose(w)
}

// Conv2d is a 2-D convolution layer over N×C×H×W inputs.
type Conv2d struct {
	Name        string
	W           *tensor.Tensor // cout × cin × kh × kw
	B           *tensor.Tensor // cout (may be nil)
	Stride, Pad int
}

// NewConv2d returns a Conv2d layer with Xavier-initialized kernels.
func NewConv2d(g *tensor.RNG, name string, cin, cout, k, stride, pad int) *Conv2d {
	fan := cin * k * k
	return &Conv2d{
		Name:   name,
		W:      g.Xavier(fan, cout*k*k, cout, cin, k, k),
		B:      g.Uniform(-0.01, 0.01, cout),
		Stride: stride,
		Pad:    pad,
	}
}

// Forward applies the convolution.
func (c *Conv2d) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardBatch(e, x, 1)
}

// ForwardBatch applies the convolution to an input stacking `items`
// batch blocks along the leading axis, accounting the shared kernel
// traffic per item.
func (c *Conv2d) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	return e.Conv2DBatch(x, c.W, c.B, c.Stride, c.Pad, items)
}

// Register records the layer parameters.
func (c *Conv2d) Register(e *ops.Engine) {
	e.RegisterParam(c.Name+".weight", "weight", c.W)
	if c.B != nil {
		e.RegisterParam(c.Name+".bias", "weight", c.B)
	}
}

// BatchNorm2d applies per-channel scale and shift using frozen statistics
// (inference mode).
type BatchNorm2d struct {
	Name        string
	Scale, Bias *tensor.Tensor // per-channel
}

// NewBatchNorm2d returns an inference-mode batch norm over c channels.
func NewBatchNorm2d(g *tensor.RNG, name string, c int) *BatchNorm2d {
	return &BatchNorm2d{
		Name:  name,
		Scale: g.Uniform(0.9, 1.1, c),
		Bias:  g.Uniform(-0.05, 0.05, c),
	}
}

// Forward applies y = x*scale[c] + bias[c] per channel.
func (b *BatchNorm2d) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: BatchNorm2d %q expects rank-4 input, got %v", b.Name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	// Materialize the broadcast per-channel parameters once, chunked per
	// (batch, channel) plane on the engine's backend. Every element is
	// written, so the buffers come from the backend's scratch pool and go
	// back once the two ops have read them.
	be := e.Backend()
	scale := tensor.FromSlice(be.Scratch32(x.Size()), n, c, h, w)
	shift := tensor.FromSlice(be.Scratch32(x.Size()), n, c, h, w)
	hw := h * w
	be.For(n*c, 1, func(lo, hi int) {
		for bc := lo; bc < hi; bc++ {
			base := bc * hw
			sv, bv := b.Scale.At(bc%c), b.Bias.At(bc%c)
			for i := 0; i < hw; i++ {
				scale.Data()[base+i] = sv
				shift.Data()[base+i] = bv
			}
		}
	})
	y := e.Add(e.Mul(x, scale), shift)
	be.Release32(scale.Data())
	be.Release32(shift.Data())
	return y
}

// Register records the layer parameters.
func (b *BatchNorm2d) Register(e *ops.Engine) {
	e.RegisterParam(b.Name+".scale", "weight", b.Scale)
	e.RegisterParam(b.Name+".bias", "weight", b.Bias)
}

// Activation wraps a parameter-free nonlinearity as a Layer.
type Activation struct {
	Name string
	F    func(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor
}

// ReLU returns a ReLU activation layer.
func ReLU() *Activation {
	return &Activation{Name: "relu", F: func(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor { return e.ReLU(x) }}
}

// Forward applies the activation.
func (a *Activation) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor { return a.F(e, x) }

// Register is a no-op: activations have no parameters.
func (a *Activation) Register(*ops.Engine) {}

// BatchLayer is a layer that accounts a leading serving-batch dimension:
// the input stacks `items` independent blocks, and weight-bearing ops
// record their shared-parameter traffic once per item so the trace stays
// uniformly items× one block's pass. ForwardBatch with items 1 must be
// identical to Forward.
type BatchLayer interface {
	Layer
	ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies each layer in order.
func (s *Sequential) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(e, x)
	}
	return x
}

// ForwardBatch applies each layer in order, threading the serving-batch
// item count through layers that account it; batch-transparent layers
// (activations, norms — whose costs scale with tensor size) run as is.
func (s *Sequential) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	for _, l := range s.Layers {
		if bl, ok := l.(BatchLayer); ok {
			x = bl.ForwardBatch(e, x, items)
		} else {
			x = l.Forward(e, x)
		}
	}
	return x
}

// Register records all contained parameters.
func (s *Sequential) Register(e *ops.Engine) {
	for _, l := range s.Layers {
		l.Register(e)
	}
}

// NewMLP builds a multi-layer perceptron with the given layer widths and
// ReLU activations between hidden layers (none after the last).
func NewMLP(g *tensor.RNG, name string, widths ...int) *Sequential {
	if len(widths) < 2 {
		panic("nn: NewMLP needs at least input and output widths")
	}
	var layers []Layer
	for i := 0; i+1 < len(widths); i++ {
		layers = append(layers, NewLinear(g, fmt.Sprintf("%s.fc%d", name, i), widths[i], widths[i+1], true))
		if i+2 < len(widths) {
			layers = append(layers, ReLU())
		}
	}
	return NewSequential(layers...)
}
