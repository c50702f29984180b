// Package neural implements the pure-neural RPM baseline the paper (and
// the NVSA evaluation it cites) compares against: a CNN embeds the context
// panels and every candidate, and an MLP scores each candidate against the
// aggregated context embedding. Without symbolic rule abduction, the
// baseline cannot exploit the task's relational structure and stays near
// chance on held-out rule combinations — the accuracy gap that motivates
// neuro-symbolic designs.
package neural

import (
	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the baseline.
type Config struct {
	M       int   // RPM grid dimension; default 3
	ImgSize int   // rendered panel resolution; default 32
	Embed   int   // embedding width; default 128
	Seed    int64 // default 1
}

func (c *Config) defaults() {
	if c.M == 0 {
		c.M = 3
	}
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.Embed == 0 {
		c.Embed = 128
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Baseline is the workload instance: a model that runs only read, so
// concurrent runs share it.
type Baseline struct {
	cfg Config
	// g is the generator in its post-construction state (or after
	// TrainScorer). Runs draw their tasks from a clone.
	g      *tensor.RNG
	cnn    *nn.CNN
	scorer *nn.Sequential
}

// New constructs the baseline.
func New(cfg Config) *Baseline {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	return &Baseline{
		cfg:    cfg,
		g:      g,
		cnn:    nn.NewCNN(g, "baseline.enc", nn.CNNConfig{InChannels: 1, InSize: cfg.ImgSize, Channels: []int{8, 16, 32}, Residual: true, OutDim: cfg.Embed}),
		scorer: nn.NewMLP(g, "baseline.scorer", 2*cfg.Embed, cfg.Embed, 1),
	}
}

// Name implements the workload identity.
func (w *Baseline) Name() string { return "NeuralBaseline" }

// Category labels the baseline, which sits outside the taxonomy.
const Category = "Neural (baseline)"

// Category identifies the baseline.
func (w *Baseline) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *Baseline) Register(e *ops.Engine) {
	w.cnn.Register(e)
	w.scorer.Register(e)
}

// Run solves one generated task (all-neural; no symbolic phase).
func (w *Baseline) Run(e *ops.Engine) error { return w.RunBatch(e, 1) }

// RunBatch solves one generated task for n batch replicas in a single
// engine pass: the CNN embeds all n×panels images as one batch, and the
// scorer ranks all n candidate rows at once.
func (w *Baseline) RunBatch(e *ops.Engine, n int) error {
	task := raven.Generate(raven.Config{M: w.cfg.M}, w.g.Clone())
	_, err := w.SolveBatch(e, task, n)
	return err
}

// Solve embeds the panels and scores every candidate, returning the argmax.
func (w *Baseline) Solve(e *ops.Engine, task raven.Task) (int, error) {
	return w.SolveBatch(e, task, 1)
}

// SolveBatch solves the task with a leading batch dimension of n replicas
// threaded through every tensor: panel embeddings are (n·panels, Embed),
// context aggregation and candidate scoring are (n, ...) shaped, and the
// answer is read from item 0. Every event records exactly n× the solo
// cost, which is what lets CharacterizeBatch split the trace per item.
func (w *Baseline) SolveBatch(e *ops.Engine, task raven.Task, n int) (int, error) {
	w.Register(e)
	e.SetPhase(trace.Neural)
	panels := append(append([]raven.Panel{}, task.Context...), task.Choices...)
	rendered := make([]*tensor.Tensor, len(panels))
	for i, p := range panels {
		rendered[i] = p.Render(w.cfg.ImgSize).Reshape(1, w.cfg.ImgSize, w.cfg.ImgSize)
	}
	imgs := make([]*tensor.Tensor, 0, n*len(panels))
	for i := 0; i < n; i++ {
		imgs = append(imgs, rendered...)
	}
	batch := e.HostToDevice(e.Stack(imgs...))
	emb := w.cnn.ForwardBatch(e, batch, n) // (n·panels, Embed)
	// The reshape's fixed cost does not scale with tensor size, so it is
	// recorded once per item to keep the trace uniformly n×.
	emb3 := e.ReshapeBatch(emb, n, n, len(panels), w.cfg.Embed)

	ctx := len(task.Context)
	ctxEmb := e.MeanAxis(e.SliceAxis(emb3, 1, 0, ctx), 1) // (n, Embed)
	scores := tensor.New(len(task.Choices))
	for ci := range task.Choices {
		cand := e.SliceAxis(emb3, 1, ctx+ci, ctx+ci+1).Reshape(n, w.cfg.Embed)
		in := e.Concat(1, ctxEmb, cand) // (n, 2·Embed)
		s := w.scorer.ForwardBatch(e, in, n)
		scores.Data()[ci] = s.At(0, 0)
	}
	return tensor.ArgMax(scores), nil
}

// scorerParams exposes the scoring MLP's two linear layers.
func (w *Baseline) scorerParams() (w1, b1, w2, b2 *tensor.Tensor) {
	l1 := w.scorer.Layers[0].(*nn.Linear)
	l2 := w.scorer.Layers[2].(*nn.Linear)
	return l1.W, l1.B, l2.W, l2.B
}

// setScorerParams installs trained scorer parameters for inference.
func (w *Baseline) setScorerParams(w1, b1, w2, b2 *tensor.Tensor) {
	w.scorer.Layers[0].(*nn.Linear).SetWeights(w1, b1)
	w.scorer.Layers[2].(*nn.Linear).SetWeights(w2, b2)
}

// SolveAccuracy runs n fresh tasks and returns the fraction correct
// (expected near chance for untrained weights).
func (w *Baseline) SolveAccuracy(n int) float64 {
	g := w.g.Clone()
	correct := 0
	for i := 0; i < n; i++ {
		task := raven.Generate(raven.Config{M: w.cfg.M}, g)
		e := ops.New()
		if got, err := w.Solve(e, task); err == nil && got == task.AnswerIdx {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
