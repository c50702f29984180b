// Batched characterization: n items of one workload, split back into
// per-item reports. The paper's workloads are dominated by small
// low-intensity kernels that leave hardware idle; a workload that folds
// its items into one engine pass (a native BatchWorkload) amortizes that
// idle time across items, which nsbench -batch measures against n solo
// runs.
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

// CharacterizeBatch runs n items of w and analyzes each item's trace
// against opts.Device. A native BatchWorkload with n > 1 runs one
// RunBatch pass whose trace trace.SplitBatch splits uniformly; everything
// else runs n plain Characterize passes, so n == 1 is Characterize
// exactly. Every item's report is what a solo run of w reports.
func CharacterizeBatch(w Workload, n int, opts Options) ([]*Report, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: CharacterizeBatch batch size %d", n)
	}
	reports := make([]*Report, n)
	bw, native := w.(BatchWorkload)
	if !native || n == 1 {
		for i := range reports {
			r, err := Characterize(w, opts)
			if err != nil {
				return nil, err
			}
			reports[i] = r
		}
		return reports, nil
	}
	e := opts.engine()
	defer e.Recycle()
	if err := bw.RunBatch(e, n); err != nil {
		return nil, fmt.Errorf("core: batch of %d × %s: %w", n, w.Name(), err)
	}
	traces, err := trace.SplitBatch(e.Trace(), n)
	if err != nil {
		return nil, err
	}
	for i, tr := range traces {
		reports[i] = Analyze(w.Name(), w.Category(), tr, opts)
	}
	return reports, nil
}
