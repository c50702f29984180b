package tensor

// Kernel selects a GEMM/conv kernel implementation. The zero value is
// KernelAuto, which consults the measured dispatch table below; the
// explicit values force one implementation, which is what the bit-identity
// tests and the kernel benchmarks use.
type Kernel int

// Kernel values.
const (
	// KernelAuto picks the implementation per shape from the measured
	// dispatch table. This is the default everywhere.
	KernelAuto Kernel = iota
	// KernelNaive forces the original direct loops.
	KernelNaive
	// KernelTiled forces the register-blocked, cache-tiled variants.
	KernelTiled
)

// String returns the kernel's name as the kernel benchmarks report it.
func (k Kernel) String() string {
	switch k {
	case KernelNaive:
		return "naive"
	case KernelTiled:
		return "tiled"
	default:
		return "auto"
	}
}

// The dispatch table: measured naive/tiled crossover points for the auto
// kernel. The thresholds come from the checked-in kernel benchmarks
// (BENCH_kernels.json, regenerated with `nsbench -kernel-bench`; see
// DESIGN.md §2.7 for the measurement table). Dispatch is a pure function
// of the operand shapes — never of timing — so the kernel an op runs on,
// and therefore its results and trace, are reproducible run to run.
const (
	// gemmTiledMinRows is the m floor for the tiled GEMM: below one
	// micro-tile of output rows the packed panel is amortized over too few
	// row passes and the naive row kernel wins (measured: m=1..3 skinny
	// products such as the NVSA codebook encode run ~1.2-2x faster naive).
	gemmTiledMinRows = gemmMR
	// gemmTiledMinCols is the n floor: narrower outputs than one micro-tile
	// column block leave the micro-kernel mostly in its scalar edge path.
	gemmTiledMinCols = gemmNR
	// gemmTiledMinFlops is the total-work floor (2·m·k·n). Under ~64 KFLOP
	// the pack/dispatch overhead dominates the measured crossover.
	gemmTiledMinFlops = 64 * 1024
	// convTiledMinWout is the output-width floor for the tiled conv: the
	// interior fast path register-blocks four output pixels, so rows
	// narrower than one block run entirely in the edge path and the naive
	// per-pixel loop is equally good.
	convTiledMinWout = 4
)

// GemmKernelFor reports the kernel the auto dispatch table selects for an
// m×k · k×n product (benchmark/report introspection).
func GemmKernelFor(m, k, n int) Kernel { return gemmKernel(KernelAuto, m, k, n) }

// ConvKernelFor reports the kernel the auto dispatch table selects for a
// convolution with output width wout.
func ConvKernelFor(wout int) Kernel { return convKernel(KernelAuto, wout) }

// gemmKernel resolves the kernel to run an m×k · k×n product on.
func gemmKernel(kern Kernel, m, k, n int) Kernel {
	if kern != KernelAuto {
		return kern
	}
	if m < gemmTiledMinRows || n < gemmTiledMinCols {
		return KernelNaive
	}
	if 2*int64(m)*int64(k)*int64(n) < gemmTiledMinFlops {
		return KernelNaive
	}
	return KernelTiled
}

// convKernel resolves the kernel to run a conv with the given output plane
// on. The tiled variant needs enough output width for its four-wide
// interior blocks to engage.
func convKernel(kern Kernel, wout int) Kernel {
	if kern != KernelAuto {
		return kern
	}
	if wout < convTiledMinWout {
		return KernelNaive
	}
	return KernelTiled
}
