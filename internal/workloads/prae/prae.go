// Package prae implements the Probabilistic Abduction and Execution
// learner (Zhang et al., CVPR 2021; workload W7): neural visual perception
// producing per-attribute probability distributions, a scene-inference
// engine aggregating them into a probabilistic scene representation, and a
// symbolic backend that abduces hidden rules and executes them to predict
// the answer panel.
//
// Unlike NVSA, PrAE works on the original probability representation: its
// backend performs the exhaustive joint-probability computations that NVSA
// replaces with vector-symbolic algebra, which is why PrAE's symbolic phase
// is the most memory-hungry of the characterized workloads (Fig. 3b).
package prae

import (
	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/workloads/abduction"
)

// Config parameterizes the workload.
type Config struct {
	M       int     // RPM grid dimension; default 3
	ImgSize int     // rendered panel resolution; default 32
	Noise   float64 // perception label noise; default 0.01
	Seed    int64   // default 1
}

func (c *Config) defaults() {
	if c.M == 0 {
		c.M = 3
	}
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.Noise == 0 {
		c.Noise = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PrAE is the workload instance: a read-only model that concurrent runs
// share.
type PrAE struct {
	cfg Config
	// g is the generator in its post-construction state. Runs draw their
	// tasks and perception noise from a clone, never from g itself.
	g     *tensor.RNG
	cnn   *nn.CNN
	attrs []raven.Attribute
}

// New constructs the workload.
func New(cfg Config) *PrAE {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	return &PrAE{
		cfg:   cfg,
		g:     g,
		cnn:   nn.NewCNN(g, "prae.perception", nn.CNNConfig{InChannels: 1, InSize: cfg.ImgSize, Channels: []int{8, 16}, OutDim: 64}),
		attrs: []raven.Attribute{raven.Number, raven.Type, raven.Size, raven.Color},
	}
}

// Name implements the workload identity.
func (w *PrAE) Name() string { return "PrAE" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro|Symbolic"

// Category returns the taxonomy category.
func (w *PrAE) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *PrAE) Register(e *ops.Engine) { w.cnn.Register(e) }

// Run generates one RPM task and solves it end-to-end.
func (w *PrAE) Run(e *ops.Engine) error {
	g := w.g.Clone()
	task := raven.Generate(raven.Config{M: w.cfg.M}, g)
	_, err := w.solve(e, task, g)
	return err
}

// Solve runs the pipeline and returns the chosen candidate index, drawing
// perception noise from a clone of the model's generator.
func (w *PrAE) Solve(e *ops.Engine, task raven.Task) (int, error) {
	return w.solve(e, task, w.g.Clone())
}

// solve runs the pipeline with perception noise drawn from g.
func (w *PrAE) solve(e *ops.Engine, task raven.Task, g *tensor.RNG) (int, error) {
	w.Register(e)
	panels := append(append([]raven.Panel{}, task.Context...), task.Choices...)

	// ---- Neural perception ------------------------------------------------
	e.SetPhase(trace.Neural)
	imgs := make([]*tensor.Tensor, len(panels))
	for i, p := range panels {
		imgs[i] = p.Render(w.cfg.ImgSize).Reshape(1, w.cfg.ImgSize, w.cfg.ImgSize)
	}
	batch := e.Stack(imgs...)
	batch = e.HostToDevice(batch)
	feats := w.cnn.Forward(e, batch)
	soft := e.Softmax(feats)
	hostF := e.DeviceToHost(soft)

	// ---- Symbolic abduction and execution ---------------------------------
	e.SetPhase(trace.Symbolic)
	// Perception readout (see DESIGN.md substitutions): an explicit traced
	// event producing the attribute PMFs from the neural output, so the
	// symbolic backend's dependence on the frontend appears in the graph.
	pmfs := make([]map[raven.Attribute]*tensor.Tensor, len(panels))
	e.Logic("PerceptionReadout", int64(len(panels)*30), int64(len(panels)*30*4), []*tensor.Tensor{hostF}, func() []*tensor.Tensor {
		var outs []*tensor.Tensor
		for i, p := range panels {
			pmfs[i] = raven.PerceivePMF(p, w.cfg.Noise, g)
			for _, a := range w.attrs {
				outs = append(outs, pmfs[i][a])
			}
		}
		return outs
	})
	e.MeasureSparsity(true)
	e.SetSparsityEps(float32(w.cfg.Noise)) // count the noise floor as zero
	defer e.MeasureSparsity(false)

	m := task.M
	ctx := len(task.Context)
	chosen := -1

	// Scene inference: build the exhaustive joint scene distribution for
	// every context panel, over position-pattern × type × size × color.
	// These large low-density intermediates are what make PrAE's symbolic
	// phase the most memory-hungry of the suite (Fig. 3b) and what NVSA's
	// algebraic substitution avoids.
	e.InStage("scene_inference", func() {
		// Context panels and answer candidates alike get a scene
		// representation — candidate selection compares in scene space.
		for pi := range panels {
			joint := scene(e, raven.PerceivePositionPMF(panels[pi], w.cfg.Noise), pmfs[pi])
			_ = e.NormalizeL1(joint)
			e.Release(joint)
		}
	})

	predicted := make(map[raven.Attribute]*tensor.Tensor, len(w.attrs))
	for _, a := range w.attrs {
		rows := make([][]*tensor.Tensor, m)
		for r := 0; r < m; r++ {
			for c := 0; c < m; c++ {
				if pi := r*m + c; pi < ctx {
					rows[r] = append(rows[r], pmfs[pi][a])
				}
			}
		}
		var best abduction.CandidateRule
		e.InStage("abduce:"+a.String(), func() {
			scores := abduction.Abduce(e, a, m, rows)
			e.Logic("RuleAbduce:"+a.String(), int64(len(scores)), int64(len(scores))*4, nil, func() []*tensor.Tensor {
				best, _ = abduction.BestRule(a, m, scores)
				return nil
			})
		})
		e.InStage("execute:"+a.String(), func() {
			predicted[a] = abduction.ExecuteWithContext(e, best, rows)
		})
	}

	// Candidate selection against the predicted probabilistic scene: the
	// predicted marginals are synthesized into a full joint scene and each
	// candidate's joint scene is compared against it (probabilistic
	// planning in scene space), alongside the exact marginal dot products.
	scores := tensor.New(len(task.Choices))
	e.InStage("select", func() {
		predScene := scene(e, raven.PerceivePositionPMF(panels[ctx-1], w.cfg.Noise), predicted)
		defer e.Release(predScene)
		for ci := range task.Choices {
			cp := pmfs[ctx+ci]
			choiceScene := scene(e, raven.PerceivePositionPMF(panels[ctx+ci], w.cfg.Noise), cp)
			_ = e.Dot(predScene, choiceScene)
			e.Release(choiceScene)
			total := tensor.Scalar(1)
			for _, a := range w.attrs {
				total = e.Mul(total, e.Dot(predicted[a], cp[a]))
			}
			scores.Data()[ci] = total.Item()
		}
		e.Logic("AnswerSelect", int64(len(task.Choices)), int64(len(task.Choices))*4, []*tensor.Tensor{scores}, func() []*tensor.Tensor {
			chosen = tensor.ArgMax(scores)
			return nil
		})
	})
	return chosen, nil
}

// scene builds the exhaustive joint scene distribution position × type ×
// size × color, handing each intermediate joint back to the engine's
// scratch pool once the next expansion has consumed it. The caller
// Releases the returned scene the same way.
func scene(e *ops.Engine, pos *tensor.Tensor, pmf map[raven.Attribute]*tensor.Tensor) *tensor.Tensor {
	joint := abduction.Joint(e, pos, pmf[raven.Type])
	for _, a := range []raven.Attribute{raven.Size, raven.Color} {
		next := abduction.Joint(e, joint, pmf[a])
		e.Release(joint)
		joint = next
	}
	return joint
}

// SolveAccuracy runs n fresh tasks, drawn with their noise from one clone
// of the model's generator, and returns the fraction answered correctly.
func (w *PrAE) SolveAccuracy(n int) float64 {
	g := w.g.Clone()
	correct := 0
	for i := 0; i < n; i++ {
		task := raven.Generate(raven.Config{M: w.cfg.M}, g)
		e := ops.New()
		if got, err := w.solve(e, task, g); err == nil && got == task.AnswerIdx {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
