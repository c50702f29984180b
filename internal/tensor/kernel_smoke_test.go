package tensor

import (
	"os"
	"testing"
	"time"
)

// TestKernelSpeedupSmoke is the CI guard on the tiled kernels' reason to
// exist: on large shapes the tiled GEMM/conv must actually beat naive.
// Gated behind NSBENCH_KERNEL_SMOKE because it needs a quiet machine and
// ~a second of timed work. The asserted floors (1.5x GEMM, 1.2x conv, 1.5x
// batched cleanup, 2x index-free joint expansion) sit well under the
// recorded speedups in BENCH_kernels.json (4-5x, ~2x, ~3x and ~19x) so
// scheduler noise cannot flake the job, while still catching any
// regression that would invalidate the dispatch table, the batched
// cleanup path or the index-free expansion.
func TestKernelSpeedupSmoke(t *testing.T) {
	if os.Getenv("NSBENCH_KERNEL_SMOKE") == "" {
		t.Skip("set NSBENCH_KERNEL_SMOKE=1 to run the kernel speedup smoke")
	}

	minNs := func(fn func(), reps int) int64 {
		fn() // warm up
		best := int64(1<<63 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			fn()
			if d := time.Since(start).Nanoseconds(); d < best {
				best = d
			}
		}
		return best
	}

	g := NewRNG(7)
	a, b := g.Normal(0, 1, 256, 256), g.Normal(0, 1, 256, 256)
	naive := minNs(func() { MatMulKernelOn(Serial, KernelNaive, a, b) }, 5)
	tiled := minNs(func() { MatMulKernelOn(Serial, KernelTiled, a, b) }, 5)
	if speedup := float64(naive) / float64(tiled); speedup < 1.5 {
		t.Errorf("tiled GEMM on 256x256x256: %.2fx over naive (naive %dns, tiled %dns), want >= 1.5x", speedup, naive, tiled)
	}

	in := g.Normal(0, 1, 1, 16, 32, 32)
	w := g.Normal(0, 1, 16, 16, 3, 3)
	bias := g.Normal(0, 1, 16)
	naive = minNs(func() { Conv2DKernelOn(Serial, KernelNaive, in, w, bias, 1, 1) }, 5)
	tiled = minNs(func() { Conv2DKernelOn(Serial, KernelTiled, in, w, bias, 1, 1) }, 5)
	if speedup := float64(naive) / float64(tiled); speedup < 1.2 {
		t.Errorf("tiled conv on 1x16x16x32: %.2fx over naive (naive %dns, tiled %dns), want >= 1.2x", speedup, naive, tiled)
	}

	// Batched cleanup: one 16-query MatVecsOn against NVSA's joint codebook
	// must beat 16 MatVecOn calls, each of which streams the whole matrix.
	cb := g.Normal(0, 1, 2700, 4096)
	xs := make([]*Tensor, 16)
	for j := range xs {
		xs[j] = g.Normal(0, 1, 4096)
	}
	loop := minNs(func() {
		for _, x := range xs {
			MatVecOn(Serial, cb, x)
		}
	}, 3)
	batched := minNs(func() { MatVecsOn(Serial, KernelAuto, cb, xs) }, 3)
	t.Logf("batched 16-query cleanup: GEMVs %dns, batched %dns (%.2fx)", loop, batched, float64(loop)/float64(batched))
	if speedup := float64(loop) / float64(batched); speedup < 1.5 {
		t.Errorf("batched 16-query cleanup on 2700x4096: %.2fx over 16 GEMVs (GEMVs %dns, batched %dns), want >= 1.5x", speedup, loop, batched)
	}

	// PrAE's largest joint expansion: the index-free kernel into reused
	// buffers must beat building the two index vectors and gathering.
	const la, lb = 15360, 10
	ja, jb := g.Normal(0, 1, la), g.Normal(0, 1, lb)
	gather := minNs(func() {
		idxA, idxB := make([]int, la*lb), make([]int, la*lb)
		for i := 0; i < la; i++ {
			for j := 0; j < lb; j++ {
				idxA[i*lb+j], idxB[i*lb+j] = i, j
			}
		}
		Gather(ja.Reshape(la, 1), idxA)
		Gather(jb.Reshape(lb, 1), idxB)
	}, 5)
	ea, eb := New(la*lb), New(la*lb)
	expand := minNs(func() { OuterExpandOn(Serial, ea, eb, ja, jb) }, 5)
	t.Logf("joint expansion 15360x10: gathers %dns, index-free %dns (%.2fx)", gather, expand, float64(gather)/float64(expand))
	if speedup := float64(gather) / float64(expand); speedup < 2 {
		t.Errorf("index-free joint expansion on 15360x10: %.2fx over index vectors + gathers (gathers %dns, index-free %dns), want >= 2x", speedup, gather, expand)
	}
}
