package hwsim

import "github.com/neurosym/nsbench/internal/trace"

// StreamMemoCap is the stream memo's bound.
const StreamMemoCap = streamMemoCap

// ResetStreamMemo empties the process-wide stream memo.
func ResetStreamMemo() {
	streamMemo.mu.Lock()
	clear(streamMemo.m)
	streamMemo.mu.Unlock()
}

// StreamMemoLen is the number of memoized specs.
func StreamMemoLen() int { return streamMemo.Len() }

// KernelStatsUncached is KernelStats simulating its stream without the
// memo.
func (d Device) KernelStatsUncached(kernel string, events []trace.Event) KernelStats {
	return d.kernelStats(kernel, events, StreamSpec.Simulate)
}
