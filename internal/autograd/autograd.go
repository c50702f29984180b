// Package autograd implements reverse-mode automatic differentiation over
// the tensor substrate: a dynamically built computation graph with
// per-operation backward rules and a topological backward pass.
//
// It addresses the paper's "developing efficient software frameworks"
// direction (Sec. VI): neuro-symbolic systems need differentiable logic —
// fuzzy connectives, quantifier aggregations — composed with neural
// layers under one gradient framework. The fuzzy-logic operations here
// (clamp-based Łukasiewicz connectives, p-mean quantifiers) are exactly the
// pieces LTN-style training differentiates through.
package autograd

import (
	"fmt"
	"math"

	"github.com/neurosym/nsbench/internal/tensor"
)

// Var is a node in the computation graph.
type Var struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// requiresGrad marks leaves that accumulate gradient (parameters).
	requiresGrad bool
	backward     func()
	parents      []*Var
}

// NewVar wraps a tensor as a graph leaf. requiresGrad marks parameters.
func NewVar(t *tensor.Tensor, requiresGrad bool) *Var {
	return &Var{Value: t, requiresGrad: requiresGrad}
}

// Const wraps a tensor as a non-trainable constant.
func Const(t *tensor.Tensor) *Var { return NewVar(t, false) }

// ensureGrad lazily allocates the gradient buffer.
func (v *Var) ensureGrad() {
	if v.Grad == nil {
		v.Grad = tensor.Zeros(v.Value.Shape()...)
	}
}

// accumulate adds g into v's gradient.
func (v *Var) accumulate(g *tensor.Tensor) {
	v.ensureGrad()
	tensor.AXPY(1, g, v.Grad)
}

// ZeroGrad clears the accumulated gradient.
func (v *Var) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Fill(0)
	}
}

// Backward runs the reverse pass from a scalar output.
func (v *Var) Backward() {
	if v.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward needs a scalar output, got %v", v.Value.Shape()))
	}
	// Topological order via DFS.
	var order []*Var
	seen := map[*Var]bool{}
	var visit func(n *Var)
	visit = func(n *Var) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(v)
	v.ensureGrad()
	v.Grad.Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// node builds an op result with its backward rule.
func node(out *tensor.Tensor, back func(grad *tensor.Tensor), parents ...*Var) *Var {
	v := &Var{Value: out, parents: parents}
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		back(v.Grad)
	}
	return v
}

// MatMul returns a·b with gradients dA = dC·Bᵀ, dB = Aᵀ·dC.
func MatMul(a, b *Var) *Var {
	out := tensor.MatMul(a.Value, b.Value)
	v := node(out, nil, a, b)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(tensor.MatMul(v.Grad, tensor.Transpose(b.Value)))
		b.accumulate(tensor.MatMul(tensor.Transpose(a.Value), v.Grad))
	}
	return v
}

// Add returns a + b element-wise.
func Add(a, b *Var) *Var {
	v := node(tensor.Add(a.Value, b.Value), nil, a, b)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(v.Grad)
		b.accumulate(v.Grad)
	}
	return v
}

// Sub returns a - b element-wise.
func Sub(a, b *Var) *Var {
	v := node(tensor.Sub(a.Value, b.Value), nil, a, b)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(v.Grad)
		b.accumulate(tensor.Neg(v.Grad))
	}
	return v
}

// Mul returns the Hadamard product.
func Mul(a, b *Var) *Var {
	v := node(tensor.Mul(a.Value, b.Value), nil, a, b)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(tensor.Mul(v.Grad, b.Value))
		b.accumulate(tensor.Mul(v.Grad, a.Value))
	}
	return v
}

// MulScalar returns a * s.
func MulScalar(a *Var, s float32) *Var {
	v := node(tensor.MulScalar(a.Value, s), nil, a)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(tensor.MulScalar(v.Grad, s))
	}
	return v
}

// AddRowBias adds a length-n bias vector to every row of an m×n matrix.
func AddRowBias(a, bias *Var) *Var {
	m, n := a.Value.Dim(0), a.Value.Dim(1)
	if bias.Value.Rank() != 1 || bias.Value.Dim(0) != n {
		panic(fmt.Sprintf("autograd: AddRowBias bias %v vs matrix %v", bias.Value.Shape(), a.Value.Shape()))
	}
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(a.Value.At(i, j)+bias.Value.At(j), i, j)
		}
	}
	v := node(out, nil, a, bias)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		a.accumulate(v.Grad)
		bias.accumulate(tensor.SumAxis(v.Grad, 0))
	}
	return v
}

// ReLU returns max(0, a); the gradient is gated by the sign of the input.
func ReLU(a *Var) *Var {
	v := node(tensor.ReLU(a.Value), nil, a)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		g := tensor.New(a.Value.Shape()...)
		for i, x := range a.Value.Data() {
			if x > 0 {
				g.Data()[i] = v.Grad.Data()[i]
			}
		}
		a.accumulate(g)
	}
	return v
}

// Sigmoid returns σ(a) with gradient σ(a)(1-σ(a)).
func Sigmoid(a *Var) *Var {
	out := tensor.Sigmoid(a.Value)
	v := node(out, nil, a)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		g := tensor.New(out.Shape()...)
		for i, s := range out.Data() {
			g.Data()[i] = v.Grad.Data()[i] * s * (1 - s)
		}
		a.accumulate(g)
	}
	return v
}

// Sum reduces to the scalar sum of all elements.
func Sum(a *Var) *Var {
	out := tensor.Scalar(a.Value.Sum())
	v := node(out, nil, a)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		g := tensor.Full(v.Grad.Item(), a.Value.Shape()...)
		a.accumulate(g)
	}
	return v
}

// Square returns a² element-wise.
func Square(a *Var) *Var { return Mul(a, a) }

// BCE returns the mean binary cross-entropy of probabilities p against 0/1
// targets, computed stably with an epsilon floor.
func BCE(p *Var, target *tensor.Tensor) *Var {
	const eps = 1e-6
	out := tensor.New()
	n := p.Value.Size()
	var loss float64
	for i, q := range p.Value.Data() {
		qq := math.Min(math.Max(float64(q), eps), 1-eps)
		y := float64(target.Data()[i])
		loss += -(y*math.Log(qq) + (1-y)*math.Log(1-qq))
	}
	out.Data()[0] = float32(loss / float64(n))
	v := node(out, nil, p)
	v.backward = func() {
		if v.Grad == nil {
			return
		}
		scale := v.Grad.Item() / float32(n)
		g := tensor.New(p.Value.Shape()...)
		for i, q := range p.Value.Data() {
			qq := float32(math.Min(math.Max(float64(q), eps), 1-eps))
			y := target.Data()[i]
			g.Data()[i] = scale * (qq - y) / (qq * (1 - qq))
		}
		p.accumulate(g)
	}
	return v
}

// SGD is a plain stochastic-gradient-descent optimizer.
type SGD struct {
	Params []*Var
	LR     float32
}

// Step applies one update and clears the gradients.
func (o *SGD) Step() {
	for _, p := range o.Params {
		if p.Grad == nil {
			continue
		}
		tensor.AXPY(-o.LR, p.Grad, p.Value)
		p.ZeroGrad()
	}
}
