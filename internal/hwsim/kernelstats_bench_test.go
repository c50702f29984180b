package hwsim

import (
	"testing"

	"github.com/neurosym/nsbench/internal/cachesim"
	"github.com/neurosym/nsbench/internal/trace"
)

// nvsaEvents repeats one NVSA operator shape n times under a kernel label.
func nvsaEvents(kernel string, n int, flops, bytes int64) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Kernel: kernel, FLOPs: flops, Bytes: bytes}
	}
	return evs
}

var (
	streamStatsSink cachesim.Stats
	kernelStatsSink KernelStats
)

// BenchmarkKernelStats times the cache simulation behind KernelStats —
// what core.Analyze paid per phase and kernel class before the stream
// memo — on the streams NVSA's trace produces: its perception GEMMs (a
// cube-ish GEMM stream) and its 76 joint-codebook GEMVs, 2700×4096 each,
// which make up the symbolic element-wise class (an eltwise stream far
// larger than any L2, cut at the model's budget). Each stream runs
// uncached (spec → Simulate); its warm/ sibling is KernelStats on a warm
// memo, what a repeated class×device costs now.
func BenchmarkKernelStats(b *testing.B) {
	streams := []struct {
		name, kernel string
		events       []trace.Event
	}{
		{"gemm", "sgemm_nn", append(nvsaEvents("sgemm_nn", 1, 3932160, 755584), nvsaEvents("sgemm_nn", 1, 2097152, 525312)...)},
		{"eltwise", "vectorized_elem", nvsaEvents("sgemv", 76, 2*2700*4096, 44263984)},
	}
	for _, d := range AllDevices() {
		for _, s := range streams {
			spec := d.KernelStream(s.kernel, s.events)
			b.Run(s.name+"/"+d.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					streamStatsSink = spec.Simulate()
				}
			})
			b.Run("warm/"+s.name+"/"+d.Name, func(b *testing.B) {
				d.KernelStats(s.kernel, s.events) // warm the memo
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernelStatsSink = d.KernelStats(s.kernel, s.events)
				}
			})
		}
	}
}
