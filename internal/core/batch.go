// Batched characterization: one engine pass executing N compatible
// requests, split back into per-item reports. This is the core of the
// continuous-batching serving path — the paper's workloads are dominated
// by small low-intensity kernels that leave hardware idle, and batching
// across requests is the standard production move that closes the gap.
package core

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/trace"
)

// BatchWorkload is a workload that can execute one batched inference: a
// single engine pass standing for n identical items. The contract is
// replica semantics — every item of the batch is equivalent to a fresh
// instance's single run — and cost uniformity: each recorded event must
// carry exactly n× the analytic cost of one item (materialized batch
// tensors and the engine's replica amplification both guarantee this), so
// the trace splits exactly back into per-item traces.
type BatchWorkload interface {
	Workload
	// RunBatch executes one batched inference of n items. RunBatch(e, 1)
	// must be identical to Run(e).
	RunBatch(e *ops.Engine, n int) error
}

// ItemOptions carries the per-item analysis knobs of one batch member.
// Zero fields fall back to the batch-level Options.
type ItemOptions struct {
	Device hwsim.Device
}

// CharacterizeBatch executes one batched inference of n items and derives
// a per-item report for each. Native BatchWorkloads run one batched
// engine pass whose trace is split uniformly; everything else goes
// through the loop-per-item adapter (BuildBatchWorkload), which runs the
// instance once per item on the shared engine inside an "item[i]" span
// and splits the trace at the recorded item boundaries. items, when
// present, must have length n and selects each item's analysis device —
// the serving coalescer batches requests for different devices together,
// since the device only matters to analysis, not execution.
func CharacterizeBatch(w Workload, n int, opts Options, items ...ItemOptions) ([]*Report, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: CharacterizeBatch batch size %d", n)
	}
	if len(items) != 0 && len(items) != n {
		return nil, fmt.Errorf("core: CharacterizeBatch got %d item options for batch size %d", len(items), n)
	}
	opts.defaults()
	e := opts.engine()
	defer e.Recycle()

	var parts []*trace.Trace
	var err error
	switch bw := w.(type) {
	case *loopBatch:
		parts, err = bw.runSplit(e, n)
	case BatchWorkload:
		if err = bw.RunBatch(e, n); err == nil {
			parts, err = trace.SplitBatch(e.Trace(), n)
		}
	default:
		// A plain workload outside the registry: loop it on the shared
		// engine, like n successive Characterize calls.
		parts, err = (&loopBatch{w}).runSplit(e, n)
	}
	if err != nil {
		return nil, fmt.Errorf("core: batch of %d × %s: %w", n, w.Name(), err)
	}

	reports := make([]*Report, n)
	for i, p := range parts {
		iopts := opts
		if len(items) == n && items[i].Device.Name != "" {
			iopts.Device = items[i].Device
		}
		reports[i] = Analyze(w.Name(), w.Category(), p, iopts)
	}
	return reports, nil
}

// BuildBatchWorkload returns a registered workload ready for batched
// execution: its shared model itself when it implements BatchWorkload
// natively, or the loop-per-item adapter around it otherwise — so every
// registered workload is batchable.
func BuildBatchWorkload(name string) (BatchWorkload, error) {
	w, err := BuildWorkload(name)
	if err != nil {
		return nil, err
	}
	if bw, ok := w.(BatchWorkload); ok {
		return bw, nil
	}
	return &loopBatch{w}, nil
}

// loopBatch adapts any workload to BatchWorkload by running it once per
// item sequentially on the shared engine, recording each item's
// event/param/span boundaries for exact trace splitting. A Run writes
// nothing in its instance, so every item reports what a solo run does.
type loopBatch struct{ Workload }

func (a *loopBatch) RunBatch(e *ops.Engine, n int) error {
	_, err := a.runItems(e, n)
	return err
}

// itemBounds records the trace high-water marks after one item.
type itemBounds struct{ events, params, spans int }

func (a *loopBatch) runItems(e *ops.Engine, n int) ([]itemBounds, error) {
	tr := e.Trace()
	bounds := make([]itemBounds, 0, n)
	for i := 0; i < n; i++ {
		// Each item must start from the state its solo run would see on a
		// fresh engine.
		e.ResetRunState()
		e.Begin(fmt.Sprintf("item[%d]", i))
		err := a.Run(e)
		e.End()
		if err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
		bounds = append(bounds, itemBounds{events: len(tr.Events), params: len(tr.Params()), spans: len(tr.Spans())})
	}
	e.ResetRunState()
	return bounds, nil
}

// runSplit runs the adapter and carves the trace at the item boundaries.
// Unlike the native path's uniform division, adapter items own disjoint
// contiguous trace regions, so the split is an exact partition.
func (a *loopBatch) runSplit(e *ops.Engine, n int) ([]*trace.Trace, error) {
	bounds, err := a.runItems(e, n)
	if err != nil {
		return nil, err
	}
	tr := e.Trace()
	parts := make([]*trace.Trace, n)
	var prev itemBounds
	for i, b := range bounds {
		p := trace.New()
		p.SetEpoch(tr.Epoch())
		for _, ev := range tr.Events[prev.events:b.events] {
			p.Append(ev) // renumbers Seq from 0, like a solo trace
		}
		for _, pa := range tr.Params()[prev.params:b.params] {
			p.RegisterParam(pa)
		}
		for _, sp := range tr.Spans()[prev.spans:b.spans] {
			p.AddSpan(sp)
		}
		parts[i] = p
		prev = b
	}
	return parts, nil
}
