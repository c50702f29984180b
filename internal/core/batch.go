// Batched characterization: n items of one workload, split back into
// per-item reports. The paper's workloads are dominated by small
// low-intensity kernels that leave hardware idle; a workload that folds
// its items into one engine pass (a native BatchWorkload) amortizes that
// idle time across requests, which is what the serving coalescer exploits.
package core

import (
	"fmt"

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

// ExecuteBatch runs n items of w and returns one trace per item. A native
// BatchWorkload with n > 1 runs one RunBatch pass whose trace is split
// uniformly; everything else runs n plain Execute passes, so n == 1 is
// Execute exactly. Every item's trace is what a solo run of w records.
func ExecuteBatch(w Workload, n int, opts Options) ([]*trace.Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: ExecuteBatch batch size %d", n)
	}
	if bw, ok := w.(BatchWorkload); ok && n > 1 {
		e := opts.engine()
		defer e.Recycle()
		if err := bw.RunBatch(e, n); err != nil {
			return nil, fmt.Errorf("core: batch of %d × %s: %w", n, w.Name(), err)
		}
		return trace.SplitBatch(e.Trace(), n)
	}
	traces := make([]*trace.Trace, n)
	for i := range traces {
		tr, err := Execute(w, opts)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return traces, nil
}

// CharacterizeBatch executes n items of w (ExecuteBatch) and analyzes
// each item's trace against opts.Device.
func CharacterizeBatch(w Workload, n int, opts Options) ([]*Report, error) {
	traces, err := ExecuteBatch(w, n, opts)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, n)
	for i, tr := range traces {
		reports[i] = Analyze(w.Name(), w.Category(), tr, opts)
	}
	return reports, nil
}
