package neural

import (
	"github.com/neurosym/nsbench/internal/autograd"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
)

// TrainScorer fits the candidate-scoring MLP on generated tasks with
// binary cross-entropy over frozen CNN embeddings, using autograd. It
// mirrors the paper's neural-only comparison point: even with supervision,
// a pure pattern matcher without rule abduction improves only modestly and
// stays far below the neuro-symbolic solvers.
//
// Returns the first and last epoch's mean training loss. Training writes
// the model (its generator and scorer weights), so train an instance of
// your own, never the registry's shared one.
func (w *Baseline) TrainScorer(tasks, epochs int, lr float32) (first, last float32) {
	// Pre-compute embeddings for a fixed training set (the CNN is frozen;
	// only the scorer trains).
	type sample struct {
		in    *tensor.Tensor // 1 × 2*Embed
		label float32
	}
	var samples []sample
	for ti := 0; ti < tasks; ti++ {
		task := raven.Generate(raven.Config{M: w.cfg.M}, w.g)
		e := ops.New()
		panels := append(append([]raven.Panel{}, task.Context...), task.Choices...)
		imgs := make([]*tensor.Tensor, len(panels))
		for i, p := range panels {
			imgs[i] = p.Render(w.cfg.ImgSize).Reshape(1, w.cfg.ImgSize, w.cfg.ImgSize)
		}
		emb := w.cnn.Forward(e, e.Stack(imgs...))
		ctx := len(task.Context)
		ctxEmb := tensor.MeanAxis(tensor.Slice(emb, 0, ctx), 0)
		for ci := range task.Choices {
			cand := tensor.Slice(emb, ctx+ci, ctx+ci+1).Reshape(w.cfg.Embed)
			in := tensor.Concat(0, ctxEmb, cand).Reshape(1, 2*w.cfg.Embed)
			label := float32(0)
			if ci == task.AnswerIdx {
				label = 1
			}
			samples = append(samples, sample{in: in, label: label})
		}
	}

	// Trainable copies of the scorer's two linear layers.
	w1, b1, w2, b2 := w.scorerParams()
	v1 := autograd.NewVar(tensor.Transpose(w1), true) // in × hidden
	vb1 := autograd.NewVar(b1.Clone(), true)
	v2 := autograd.NewVar(tensor.Transpose(w2), true) // hidden × 1
	vb2 := autograd.NewVar(b2.Clone(), true)
	opt := &autograd.SGD{Params: []*autograd.Var{v1, vb1, v2, vb2}, LR: lr}

	forward := func(in *tensor.Tensor) *autograd.Var {
		h := autograd.ReLU(autograd.AddRowBias(autograd.MatMul(autograd.Const(in), v1), vb1))
		return autograd.Sigmoid(autograd.AddRowBias(autograd.MatMul(h, v2), vb2))
	}
	for ep := 0; ep < epochs; ep++ {
		var total float32
		for _, s := range samples {
			p := forward(s.in)
			loss := autograd.BCE(p, tensor.FromSlice([]float32{s.label}, 1, 1))
			total += loss.Value.Item()
			loss.Backward()
			opt.Step()
		}
		mean := total / float32(len(samples))
		if ep == 0 {
			first = mean
		}
		last = mean
	}

	// Write the fitted parameters back for inference.
	w.setScorerParams(tensor.Transpose(v1.Value), vb1.Value, tensor.Transpose(v2.Value), vb2.Value)
	return first, last
}
