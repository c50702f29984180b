// Package gnnattn implements the GNN+attention workload of Table I
// (Neuro_Symbolic paradigm): a graph attention network over a knowledge
// graph whose edge structure encodes the symbolic relations. The symbolic
// component is the sparse relational machinery — SDDMM attention scoring
// over the knowledge edges, edge-softmax, and SpMM aggregation — exactly
// the two kernels the paper names for this algorithm family; the neural
// component is the dense feature transforms.
//
// The task is node classification on a synthetic community graph (a
// knowledge-graph-completion stand-in): with homophilous edges, even a
// single untrained attention layer separates communities measurably better
// than chance, which the tests verify.
package gnnattn

import (
	"math"

	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/sparse"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	Nodes       int     // graph size; default 256
	Communities int     // ground-truth classes; default 4
	Degree      int     // mean degree; default 8
	Homophily   float64 // probability an edge stays intra-community; default 0.9
	Dim         int     // feature width; default 32
	Layers      int     // attention layers; default 2
	Seed        int64   // default 1
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 256
	}
	if c.Communities == 0 {
		c.Communities = 4
	}
	if c.Degree == 0 {
		c.Degree = 8
	}
	if c.Homophily == 0 {
		c.Homophily = 0.9
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Workload is the GAT instance.
type Workload struct {
	cfg    Config
	g      *tensor.RNG
	adj    *sparse.CSR
	feats  *tensor.Tensor
	labels []int
	wq, wk []*nn.Linear // per-layer query/key transforms
	wv     []*nn.Linear // per-layer value transforms
}

// New constructs the workload: a community graph with noisy per-community
// feature signatures and the (untrained, seeded) attention parameters.
func New(cfg Config) *Workload {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &Workload{cfg: cfg, g: g}

	n := cfg.Nodes
	w.labels = make([]int, n)
	for i := range w.labels {
		w.labels[i] = i * cfg.Communities / n
	}
	// Edges: mostly intra-community (the symbolic relations).
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for d := 0; d < cfg.Degree; d++ {
			var j int
			if g.Float64() < cfg.Homophily {
				c := w.labels[i]
				lo, hi := c*n/cfg.Communities, (c+1)*n/cfg.Communities
				j = lo + g.Intn(hi-lo)
			} else {
				j = g.Intn(n)
			}
			coo.Append(i, j, 1)
		}
		coo.Append(i, i, 1) // self loop
	}
	w.adj = coo.ToCSR()

	// Features: community centroid + noise.
	centroids := g.Normal(0, 2, cfg.Communities, cfg.Dim)
	w.feats = tensor.New(n, cfg.Dim)
	for i := 0; i < n; i++ {
		for d := 0; d < cfg.Dim; d++ {
			w.feats.Data()[i*cfg.Dim+d] = centroids.At(w.labels[i], d) + 0.5*float32(g.Rand().NormFloat64())
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		w.wq = append(w.wq, nn.NewLinear(g, "gat.q", cfg.Dim, cfg.Dim, false))
		w.wk = append(w.wk, nn.NewLinear(g, "gat.k", cfg.Dim, cfg.Dim, false))
		w.wv = append(w.wv, nn.NewLinear(g, "gat.v", cfg.Dim, cfg.Dim, false))
	}
	return w
}

// Name implements the workload identity.
func (w *Workload) Name() string { return "GNN+attention" }

// Category is the workload's taxonomy category (Table I).
const Category = "Neuro_Symbolic"

// Category returns the taxonomy category.
func (w *Workload) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *Workload) Register(e *ops.Engine) {
	for l := range w.wq {
		w.wq[l].Register(e)
		w.wk[l].Register(e)
		w.wv[l].Register(e)
	}
	e.InPhase(trace.Symbolic, func() {
		e.RegisterParamBytes("gat.edges", "knowledge", int64(w.adj.NNZ())*8)
	})
}

// Run performs one forward pass over the graph.
func (w *Workload) Run(e *ops.Engine) error {
	_, err := w.Forward(e)
	return err
}

// RunBatch performs one forward pass for n batch replicas: the dense
// transforms and the sparse relational kernels all carry a leading batch
// dimension (n stacked row blocks over the shared knowledge graph).
func (w *Workload) RunBatch(e *ops.Engine, n int) error {
	_, err := w.ForwardBatch(e, n)
	return err
}

// Forward computes Layers rounds of graph attention and returns the final
// node embeddings.
func (w *Workload) Forward(e *ops.Engine) (*tensor.Tensor, error) {
	return w.ForwardBatch(e, 1)
}

// ForwardBatch runs the graph attention over batch stacked copies of the
// node features — (batch·Nodes, Dim) throughout — against the one shared
// adjacency structure, which is the serving case: one knowledge graph,
// many concurrent queries.
func (w *Workload) ForwardBatch(e *ops.Engine, batch int) (*tensor.Tensor, error) {
	w.Register(e)
	e.SetPhase(trace.Neural)
	feats := w.feats
	if batch > 1 {
		feats = tensor.New(batch*w.cfg.Nodes, w.cfg.Dim)
		for i := 0; i < batch; i++ {
			copy(feats.Data()[i*w.feats.Size():(i+1)*w.feats.Size()], w.feats.Data())
		}
	}
	h := e.HostToDevice(feats)
	for l := 0; l < w.cfg.Layers; l++ {
		// ---- Neural: dense transforms -----------------------------------
		e.SetPhase(trace.Neural)
		q := w.wq[l].ForwardBatch(e, h, batch)
		k := w.wk[l].ForwardBatch(e, h, batch)
		v := w.wv[l].ForwardBatch(e, h, batch)

		// ---- Symbolic: relational attention over the knowledge edges ----
		e.SetPhase(trace.Symbolic)
		var agg *tensor.Tensor
		e.InStage("relational_attention", func() {
			// SDDMM: attention logits only where edges exist.
			logits := e.SDDMMBatch(w.adj, q, k, batch)
			// Edge softmax per row (the sparse normalization).
			att := w.edgeSoftmax(e, logits, 1/float32(math.Sqrt(float64(w.cfg.Dim))))
			// SpMM: attention-weighted neighbourhood aggregation.
			agg = e.SpMMBatch(att, v)
		})
		e.SetPhase(trace.Neural)
		h = e.Tanh(agg)
	}
	return e.DeviceToHost(h), nil
}

// edgeSoftmax normalizes each row of every CSR attention matrix in the
// batch (returned as new CSRs), recorded as one symbolic logic/eltwise
// pass whose cost covers all batch items.
func (w *Workload) edgeSoftmax(e *ops.Engine, ms []*sparse.CSR, scale float32) []*sparse.CSR {
	var total int64
	outs := make([]*sparse.CSR, len(ms))
	for i, m := range ms {
		total += int64(len(m.Val))
		outs[i] = &sparse.CSR{
			Rows:   m.Rows,
			Cols:   m.Cols,
			RowPtr: append([]int(nil), m.RowPtr...),
			Col:    append([]int(nil), m.Col...),
			Val:    make([]float32, len(m.Val)),
		}
	}
	e.Logic("EdgeSoftmax", total*8, total*8, nil, func() []*tensor.Tensor {
		for i, m := range ms {
			out := outs[i]
			for r := 0; r < m.Rows; r++ {
				lo, hi := m.RowPtr[r], m.RowPtr[r+1]
				if lo == hi {
					continue
				}
				maxv := m.Val[lo] * scale
				for p := lo + 1; p < hi; p++ {
					if v := m.Val[p] * scale; v > maxv {
						maxv = v
					}
				}
				var sum float64
				for p := lo; p < hi; p++ {
					ev := math.Exp(float64(m.Val[p]*scale - maxv))
					out.Val[p] = float32(ev)
					sum += ev
				}
				for p := lo; p < hi; p++ {
					out.Val[p] /= float32(sum)
				}
			}
		}
		return nil
	})
	return outs
}

// ClassifyAccuracy assigns each node the majority community among its
// nearest embedding centroid and returns agreement with ground truth —
// with homophilous attention this lands well above chance even untrained.
func (w *Workload) ClassifyAccuracy(e *ops.Engine) (float64, error) {
	h, err := w.Forward(e)
	if err != nil {
		return 0, err
	}
	n, d := h.Dim(0), h.Dim(1)
	k := w.cfg.Communities
	// Centroids from ground-truth labels (a transductive readout).
	centroids := tensor.New(k, d)
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		c := w.labels[i]
		counts[c]++
		for j := 0; j < d; j++ {
			centroids.Data()[c*d+j] += h.At(i, j)
		}
	}
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			centroids.Data()[c*d+j] /= float32(counts[c])
		}
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := tensor.FromSlice(h.Data()[i*d:(i+1)*d], d)
		best, bi := float32(math.Inf(-1)), 0
		for c := 0; c < k; c++ {
			cen := tensor.FromSlice(centroids.Data()[c*d:(c+1)*d], d)
			if s := tensor.CosineSimilarity(row, cen); s > best {
				best, bi = s, c
			}
		}
		if bi == w.labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n), nil
}
