// Package vsait implements the VSA-based image-to-image translation
// workload (Theiss et al., ECCV 2022; workload W5): a convolutional
// generator translates a source-domain image, and a vector-symbolic
// consistency mechanism — locality-sensitive hashing into a bipolar
// hyperspace, binding/unbinding of source and target content — guards
// against semantic flipping.
//
// The symbolic phase is dominated by per-patch hypervector algebra
// (element-wise binding, bundling, similarity), matching the paper's
// characterization of VSAIT as heavily vector-op bound (83.7% symbolic).
package vsait

import (
	"github.com/neurosym/nsbench/internal/datasets"
	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/vsa"
)

// Config parameterizes the workload.
type Config struct {
	ImgSize int   // image resolution; default 32
	Dim     int   // hypervector dimensionality; default 8192
	Seed    int64 // default 1
}

func (c *Config) defaults() {
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.Dim == 0 {
		c.Dim = 8192
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// VSAIT is the workload instance: a read-only model that concurrent runs
// share.
type VSAIT struct {
	cfg Config
	// g is the generator in its post-construction state. Runs draw their
	// image pairs from a clone, never from g itself.
	g         *tensor.RNG
	generator []*nn.ConvBlock // translation network (shape preserving)
	outConv   *nn.Conv2d
	extractor []*nn.ConvBlock // feature extractor
	space     *vsa.Space
	lsh       *vsa.LSHEncoder
	mapper    *tensor.Tensor // domain-mapping hypervector
	featC     int
}

// New constructs the workload.
func New(cfg Config) *VSAIT {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &VSAIT{cfg: cfg, g: g, featC: 16}
	w.generator = []*nn.ConvBlock{
		nn.NewConvBlock(g, "vsait.gen0", 3, 16, 3, 1, 1, false),
		nn.NewConvBlock(g, "vsait.gen1", 16, 16, 3, 1, 1, false),
	}
	w.outConv = nn.NewConv2d(g, "vsait.genout", 16, 3, 3, 1, 1)
	w.extractor = []*nn.ConvBlock{
		nn.NewConvBlock(g, "vsait.feat0", 3, 8, 3, 1, 1, true),
		nn.NewConvBlock(g, "vsait.feat1", 8, w.featC, 3, 1, 1, true),
	}
	w.space = vsa.NewSpace(vsa.MAP, cfg.Dim, cfg.Seed+1)
	w.lsh = vsa.NewLSHEncoder(w.space, w.featC, cfg.Seed+2)
	w.mapper = w.space.Random()
	return w
}

// Name implements the workload identity.
func (w *VSAIT) Name() string { return "VSAIT" }

// Category is the workload's taxonomy category (Table III).
const Category = "Neuro|Symbolic"

// Category returns the taxonomy category.
func (w *VSAIT) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *VSAIT) Register(e *ops.Engine) {
	for _, b := range w.generator {
		b.Register(e)
	}
	w.outConv.Register(e)
	for _, b := range w.extractor {
		b.Register(e)
	}
	e.InPhase(trace.Symbolic, func() {
		e.RegisterParamBytes("vsait.lsh", "codebook", w.lsh.Bytes())
		e.RegisterParam("vsait.mapper", "codebook", w.mapper)
	})
}

// Run translates one generated source image and computes the hyperspace
// consistency loss against the target domain.
func (w *VSAIT) Run(e *ops.Engine) error {
	_, err := w.Translate(e)
	return err
}

// Translate performs one translation step and returns the hyperspace
// consistency loss.
func (w *VSAIT) Translate(e *ops.Engine) (float32, error) {
	w.Register(e)
	pair := datasets.GenImagePair(w.cfg.ImgSize, 5, w.g.Clone())

	// ---- Neural: generator + feature extraction ---------------------------
	e.SetPhase(trace.Neural)
	src := e.HostToDevice(pair.Source)
	tgt := e.HostToDevice(pair.Target)
	x := src
	for _, b := range w.generator {
		x = b.Forward(e, x)
	}
	translated := e.Sigmoid(w.outConv.Forward(e, x))

	featSrc := w.features(e, src)
	featTrans := w.features(e, translated)
	featTgt := w.features(e, tgt)
	featSrc = e.DeviceToHost(featSrc)
	featTrans = e.DeviceToHost(featTrans)
	featTgt = e.DeviceToHost(featTgt)

	// ---- Symbolic: hyperspace consistency ---------------------------------
	e.SetPhase(trace.Symbolic)
	var loss float32
	e.InStage("hyperspace", func() {
		hvSrc := w.encodePatches(e, featSrc)
		hvTrans := w.encodePatches(e, featTrans)
		hvTgt := w.encodePatches(e, featTgt)

		// Broadcast the domain mapper over patches.
		np := hvSrc.Dim(0)
		rows := make([]*tensor.Tensor, np)
		for i := range rows {
			rows[i] = w.mapper
		}
		mapperMat := e.Stack(rows...)

		// Unbind source appearance, bind target appearance (MAP binding is
		// the element-wise product, self-inverse).
		content := e.Mul(hvSrc, mapperMat)
		rebound := e.Mul(content, mapperMat) // must recover hvSrc exactly
		recovery := e.Sub(rebound, hvSrc)

		// Patch-wise similarity of the translated image to the target
		// domain bundle, and to its own source content (anti-flipping).
		tgtBundle := w.bundleRows(e, hvTgt)
		bundleRows := make([]*tensor.Tensor, np)
		for i := range bundleRows {
			bundleRows[i] = tgtBundle
		}
		bundleMat := e.Stack(bundleRows...)
		simTgt := e.MeanAxis(e.Mul(hvTrans, bundleMat), 1)   // np
		simContent := e.MeanAxis(e.Mul(hvTrans, content), 1) // np
		flipPenalty := e.MeanAxis(e.Abs(recovery).Reshape(1, recovery.Size()), 1)

		// Patch-to-patch hyperspace matching: every translated patch is
		// compared against every target-domain patch (the discriminator's
		// similarity field) and against every source patch (semantic
		// consistency field) — the bulk of VSAIT's vector-symbolic work.
		simField := e.MatMul(hvTrans, e.Transpose(hvTgt))
		srcField := e.MatMul(hvTrans, e.Transpose(hvSrc))
		nearest := e.MaxAxis(e.MulScalar(simField, 1/float32(w.cfg.Dim)), 1)
		selfSim := e.MaxAxis(e.MulScalar(srcField, 1/float32(w.cfg.Dim)), 1)
		match := e.MeanAxis(e.Sub(nearest, selfSim).Reshape(1, np), 1)

		l := e.Sub(e.AddScalar(e.Neg(simTgt), 1), simContent)
		total := e.MeanAxis(l.Reshape(1, np), 1)
		loss = total.Item() + flipPenalty.Item() - match.Item()
	})
	return loss, nil
}

// features runs the extractor and flattens the spatial grid to patch
// feature vectors (patches × channels).
func (w *VSAIT) features(e *ops.Engine, img *tensor.Tensor) *tensor.Tensor {
	x := img
	for _, b := range w.extractor {
		x = b.Forward(e, x)
	}
	// x: 1 × C × h × w → (h·w) × C
	c, h, wd := x.Dim(1), x.Dim(2), x.Dim(3)
	perm := e.Permute(x.Reshape(c, h*wd), 1, 0)
	return perm.Reshape(h*wd, c)
}

// encodePatches hashes every patch feature vector into the hyperspace with
// a single batched projection plus sign (the batched LSH of the paper).
func (w *VSAIT) encodePatches(e *ops.Engine, feats *tensor.Tensor) *tensor.Tensor {
	proj := e.MatMul(feats, e.Transpose(w.lsh.Proj))
	return e.Sign(proj)
}

// bundleRows bundles all patch hypervectors into one domain descriptor.
func (w *VSAIT) bundleRows(e *ops.Engine, hv *tensor.Tensor) *tensor.Tensor {
	np, dim := hv.Dim(0), hv.Dim(1)
	sum := e.SumAxis(hv.Reshape(np, dim), 0)
	return e.Sign(sum)
}
