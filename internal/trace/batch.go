// Batch trace splitting: turning the trace of one batched engine pass
// back into per-item traces so every item of the batch gets a report of
// its own (core.CharacterizeBatch).
package trace

import (
	"fmt"
	"time"
)

// SplitBatch splits the trace of a natively batched run into n per-item
// traces. A native batch records, by construction, exactly n× the
// analytic cost of one item on every event — materialized batch tensors
// scale the size-linear cost formulas, and replica-amplified regions
// multiply explicitly — so the per-item trace is the same event stream
// with FLOPs, Bytes, Alloc and Dur divided by n. Sparsity, phases,
// stages, dependencies, params and spans are item-invariant and copied
// verbatim. An event whose counters are not divisible by n means the
// workload broke the uniformity contract, and SplitBatch reports it
// rather than silently mis-attributing cost.
func SplitBatch(t *Trace, n int) ([]*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: SplitBatch batch size %d", n)
	}
	if n == 1 {
		return []*Trace{t}, nil
	}
	k := int64(n)
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.FLOPs%k != 0 || ev.Bytes%k != 0 || ev.Alloc%k != 0 {
			return nil, fmt.Errorf("trace: SplitBatch event %d (%s) not uniform in batch %d (flops=%d bytes=%d alloc=%d)",
				i, ev.Name, n, ev.FLOPs, ev.Bytes, ev.Alloc)
		}
	}
	parts := make([]*Trace, n)
	for i := range parts {
		p := New()
		p.SetEpoch(t.epoch)
		for _, ev := range t.Events {
			ev.FLOPs /= k
			ev.Bytes /= k
			ev.Alloc /= k
			ev.Dur /= time.Duration(n)
			p.Append(ev)
		}
		p.params = append(p.params, t.params...)
		p.spans = append(p.spans, t.spans...)
		parts[i] = p
	}
	return parts, nil
}
