// Package nvsa implements the Neuro-Vector-Symbolic Architecture workload:
// a convolutional perception frontend with a holographic codebook, and a
// vector-symbolic probabilistic-abduction backend solving Raven's
// Progressive Matrices (Hersche et al., Nature MI 2023; workload W3 of the
// characterization study).
//
// Structure per inference:
//
//	neural:   render → H2D → CNN features → codebook projection
//	symbolic: PMF→VSA transform → probability computation → rule detection
//	          → rule execution → VSA→PMF transform → answer selection
//
// The symbolic stages carry the stage labels the Fig. 5 sparsity analysis
// reads ("pmf_to_vsa:<attr>", "prob:<attr>", "vsa_to_pmf:<attr>").
package nvsa

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/raven"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/vsa"
	"github.com/neurosym/nsbench/internal/workloads/abduction"
)

// Config parameterizes the workload.
type Config struct {
	M       int     // RPM grid dimension (2 or 3); default 3
	ImgSize int     // rendered panel resolution; default 32
	Dim     int     // hypervector dimensionality; default 4096
	Noise   float64 // perception label noise; default 0.01
	// SparsityEps is the magnitude below which an element counts as zero
	// in the Fig. 5 sparsity measurement; default 0.01 (the calibrated
	// perception noise floor).
	SparsityEps float64
	Seed        int64 // task + weight seed; default 1
}

func (c *Config) defaults() {
	if c.M == 0 {
		c.M = 3
	}
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.Dim == 0 {
		c.Dim = 4096
	}
	if c.Noise == 0 {
		c.Noise = 0.01
	}
	if c.SparsityEps == 0 {
		c.SparsityEps = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// NVSA is the workload instance: a read-only model that concurrent runs
// share.
type NVSA struct {
	cfg Config
	// g is the generator in its post-construction state. Runs draw their
	// tasks and perception noise from a clone, never from g itself.
	g         *tensor.RNG
	cnn       *nn.CNN
	space     *vsa.Space
	codebooks map[raven.Attribute]*vsa.Codebook
	// jointCB holds one quasi-orthogonal hypervector per attribute
	// combination (number × type × size × color). Its size is what makes
	// the NVSA codebook dominate the model's memory footprint (Fig. 3b),
	// and cleanup queries against it dominate the symbolic runtime.
	jointCB *tensor.Tensor
	attrs   []raven.Attribute
}

// New constructs the workload with deterministic weights and codebooks.
func New(cfg Config) *NVSA {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &NVSA{
		cfg:   cfg,
		g:     g,
		cnn:   nn.NewCNN(g, "nvsa.frontend", nn.CNNConfig{InChannels: 1, InSize: cfg.ImgSize, Channels: []int{8, 16}, Residual: true, OutDim: cfg.Dim}),
		space: vsa.NewSpace(vsa.HRR, cfg.Dim, cfg.Seed+1),
		attrs: []raven.Attribute{raven.Number, raven.Type, raven.Size, raven.Color},
	}
	w.codebooks = make(map[raven.Attribute]*vsa.Codebook, len(w.attrs))
	combos := 1
	for _, a := range w.attrs {
		names := make([]string, raven.Levels(a))
		for i := range names {
			names[i] = fmt.Sprintf("%s_%d", a, i)
		}
		w.codebooks[a] = vsa.NewCodebook(w.space, names)
		combos *= raven.Levels(a)
	}
	w.jointCB = g.Normal(0, float32(1)/float32(cfg.Dim), combos, cfg.Dim)
	return w
}

// Name implements the workload identity.
func (w *NVSA) Name() string { return "NVSA" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro|Symbolic"

// Category returns the taxonomy category.
func (w *NVSA) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *NVSA) Register(e *ops.Engine) {
	w.cnn.Register(e)
	e.InPhase(trace.Symbolic, func() {
		for _, a := range w.attrs {
			e.RegisterParamBytes(fmt.Sprintf("codebook.%s", a), "codebook", w.codebooks[a].Bytes())
		}
		e.RegisterParam("codebook.joint", "codebook", w.jointCB)
	})
}

// Run generates one RPM task and solves it end-to-end.
func (w *NVSA) Run(e *ops.Engine) error { return w.RunBatch(e, 1) }

// RunBatch generates one RPM task and solves it for n batch replicas in a
// single engine pass.
func (w *NVSA) RunBatch(e *ops.Engine, n int) error {
	g := w.g.Clone()
	task := raven.Generate(raven.Config{M: w.cfg.M}, g)
	_, err := w.solveBatch(e, task, n, g)
	return err
}

// Solve runs the full pipeline on a task and returns the chosen candidate
// index, drawing perception noise from a clone of the model's generator.
func (w *NVSA) Solve(e *ops.Engine, task raven.Task) (int, error) {
	return w.solveBatch(e, task, 1, w.g.Clone())
}

// solveBatch solves the task for n batch replicas in one pass, drawing
// perception noise from g. The neural frontend is materialized: the CNN
// and codebook projection run over all n×panels images as one batch, so
// their events record n× the solo cost by size. The symbolic backend operates on solo-shaped per-panel PMFs
// and hypervectors, so it runs once under replica amplification — the
// actual saving batching buys, since the paper's symbolic kernels are the
// ones too small to fill the hardware — with every recorded event scaled
// to n× for exact per-item trace splitting.
func (w *NVSA) solveBatch(e *ops.Engine, task raven.Task, n int, g *tensor.RNG) (int, error) {
	w.Register(e)
	panels := append(append([]raven.Panel{}, task.Context...), task.Choices...)

	// ---- Neural frontend -------------------------------------------------
	e.SetPhase(trace.Neural)
	rendered := make([]*tensor.Tensor, len(panels))
	for i, p := range panels {
		rendered[i] = p.Render(w.cfg.ImgSize).Reshape(1, w.cfg.ImgSize, w.cfg.ImgSize)
	}
	imgs := make([]*tensor.Tensor, 0, n*len(panels))
	for i := 0; i < n; i++ {
		imgs = append(imgs, rendered...)
	}
	batch := e.Stack(imgs...)
	batch = e.HostToDevice(batch)
	features := w.cnn.ForwardBatch(e, batch, n) // (n·panels, Dim)
	// Transduce features into the vector-symbolic space by projecting onto
	// the concatenated codebooks (quasi-orthogonal readout). The codebook
	// transpose is shared across batch items (its size does not scale with
	// n), so it is amplified explicitly to keep the trace uniformly n×.
	allCodes := w.codebooks[raven.Number].Vectors
	for _, a := range w.attrs[1:] {
		allCodes = tensor.Concat(0, allCodes, w.codebooks[a].Vectors)
	}
	var codesT *tensor.Tensor
	e.InReplicas(n, func() { codesT = e.Transpose(allCodes) })
	queries := e.MatMulBatch(features, codesT, n)
	_ = e.Softmax(queries)

	// PMFs move to the symbolic engine (device→host on the measured system).
	hostQ := e.DeviceToHost(queries)

	// ---- Symbolic backend -------------------------------------------------
	// One solo-shaped pass stands for all n identical items.
	e.SetPhase(trace.Symbolic)
	e.SetReplicas(n)
	defer e.SetReplicas(1)
	// Perception readout: PMFs over attribute levels per panel, produced
	// from the neural output (see DESIGN.md — perception accuracy is
	// emulated; the compute above is real). Recording the readout as an
	// event ties the symbolic backend to the neural frontend in the
	// dataflow graph, the Fig. 4 critical-path structure.
	pmfs := make([]map[raven.Attribute]*tensor.Tensor, len(panels))
	e.Logic("PerceptionReadout", int64(len(panels)*30), int64(len(panels)*30*4), []*tensor.Tensor{hostQ}, func() []*tensor.Tensor {
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
	e.SetSparsityEps(float32(w.cfg.SparsityEps)) // noise floor counts as zero
	defer e.MeasureSparsity(false)

	m := task.M
	ctx := len(task.Context)
	chosen := -1

	// Per-attribute abduction and execution. panelVec accumulates each
	// panel's full holographic scene vector (attribute vectors bound
	// together), later cleaned up against the joint codebook.
	panelVec := make([]*tensor.Tensor, len(panels))
	predicted := make(map[raven.Attribute]*tensor.Tensor, len(w.attrs))
	for _, a := range w.attrs {
		// Stage 1a: PMF → VSA probability expansion. The exhaustive joint
		// probability tensors are the high-sparsity data of Fig. 5; this
		// stage carries only those sparse expansions.
		rows := make([][]*tensor.Tensor, m)
		e.InStage("pmf_to_vsa:"+a.String(), func() {
			for r := 0; r < m; r++ {
				for c := 0; c < m; c++ {
					pi := r*m + c
					if pi >= ctx { // the missing panel
						continue
					}
					p := pmfs[pi][a]
					rows[r] = append(rows[r], p)
					if a == raven.Number {
						// Diagonal of the self-joint: the number marginal's
						// probability expansion.
						_ = e.Mul(p, p)
					} else {
						_ = abduction.Joint(e, pmfs[pi][raven.Number], p)
					}
				}
			}
		})

		// Stage 1b: holographic scene encoding — PMF-weighted codebook
		// superpositions, one dense hypervector per visible panel.
		scene := make([][]*tensor.Tensor, m)
		e.InStage("codebook_encode:"+a.String(), func() {
			cb := w.codebooks[a]
			for pi := range panels {
				p := pmfs[pi][a]
				mixed := e.MatMul(p.Reshape(1, p.Dim(0)), cb.Vectors)
				v := e.Normalize(mixed.Reshape(w.cfg.Dim))
				if pi < ctx {
					scene[pi/m] = append(scene[pi/m], v)
				}
				if panelVec[pi] == nil {
					panelVec[pi] = v
				} else {
					panelVec[pi] = e.CircularConv(panelVec[pi], v)
				}
			}
		})

		// Stage 2+3: probability computation and rule detection. The rule
		// probabilities are computed exactly in the PMF domain. Alongside,
		// the holographic space carries NVSA's substitution of exhaustive
		// probability computation, the dominant symbolic cost: for each
		// candidate rule the loop binds the m−1 context rows
		// (position-permuted circular convolutions, each compared against
		// its row's last panel) and cleans each bound row up against the
		// joint codebook. The bindings ignore the candidate, so every
		// candidate repeats the same m−1 queries: a 3×3 run issues 52
		// cleanup queries over its four attributes, 8 of them distinct.
		// That repetition is what makes the stage's cost scale with the
		// rule hypothesis space (Fig. 2c).
		var best abduction.CandidateRule
		e.InStage("prob:"+a.String(), func() {
			scores := abduction.Abduce(e, a, m, rows)
			var bound []*tensor.Tensor
			for range abduction.Candidates(a, m) {
				for r := 0; r < m-1; r++ {
					row := scene[r]
					q := row[0]
					for k, s := range row[1:] {
						q = e.CircularConv(q, e.Roll(s, k+1))
					}
					_ = e.Dot(q, row[len(row)-1])
					bound = append(bound, q)
				}
			}
			// Cleanup readout of every candidate × context row. No query
			// depends on another query's readout, so the stage issues them
			// as one batch.
			_ = e.MatVecs(w.jointCB, bound)
			e.Logic("RuleDetect:"+a.String(), int64(len(scores)), int64(len(scores))*4, nil, func() []*tensor.Tensor {
				best, _ = abduction.BestRule(a, m, scores)
				return nil
			})
		})

		// Stage 4: rule execution — the predicted panel in both domains.
		e.InStage("execute:"+a.String(), func() {
			predicted[a] = abduction.ExecuteWithContext(e, best, rows)
			// Holographic execution: bind the last row's scene vectors into
			// the predicted panel vector.
			last := scene[m-1]
			q := last[0]
			for k, s := range last[1:] {
				q = e.CircularConv(q, e.Roll(s, k+1))
			}
			_ = e.Normalize(q)
		})
	}

	// Stage 5: probabilistic scene inference — clean every panel's bound
	// scene vector up against the joint codebook of all attribute
	// combinations. These large matrix-vector cleanup queries are the
	// memory-bound streaming workload the roofline analysis attributes to
	// NVSA's symbolic phase. They are recorded as one GEMV per panel; the
	// host runs them as one batch that reads the codebook once.
	e.InStage("scene_inference", func() {
		for _, probe := range e.MatVecs(w.jointCB, panelVec) {
			_ = e.Softmax(probe)
		}
	})

	// Stage 6: VSA → PMF and answer selection: compare the predicted panel
	// against every candidate in the vector-symbolic space.
	scores := tensor.New(len(task.Choices))
	e.InStage("vsa_to_pmf", func() {
		// Transform every candidate back through the joint codebook
		// (VSA → PMF): the cleanup readout of each candidate's scene.
		probes := e.MatVecs(w.jointCB, panelVec[ctx:])
		for ci := range task.Choices {
			choicePMFs := pmfs[ctx+ci]
			_ = e.Softmax(probes[ci])
			total := tensor.Scalar(1)
			for _, a := range w.attrs {
				dot := e.Dot(predicted[a], choicePMFs[a])
				total = e.Mul(total, dot)
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

// SolveAccuracy runs n fresh tasks, drawn with their noise from one clone
// of the model's generator, and returns the fraction answered correctly;
// each task uses its own engine so traces stay per-inference.
func (w *NVSA) SolveAccuracy(n int) float64 {
	g := w.g.Clone()
	correct := 0
	for i := 0; i < n; i++ {
		task := raven.Generate(raven.Config{M: w.cfg.M}, g)
		e := ops.New()
		got, err := w.solveBatch(e, task, 1, g)
		if err == nil && got == task.AnswerIdx {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
