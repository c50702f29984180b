package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/neurosym/nsbench/internal/backend"
)

// The tiled kernels promise results bit-identical to the naive loops for
// every shape and every Runner: tiling reorders which output elements are
// in flight, never the order of additions within one element. These tests
// pin that contract with random shapes plus a deliberate edge-shape table
// (unit dimensions, non-multiples of the register tile, shapes crossing
// the KC/NC cache-block boundaries, padded and strided convs).

func matMulNaive(a, b *Tensor) *Tensor           { return MatMulKernelOn(Serial, KernelNaive, a, b) }
func matMulTiled(r Runner, a, b *Tensor) *Tensor { return MatMulKernelOn(r, KernelTiled, a, b) }

// gemmEdgeShapes are the corner shapes the random generator is unlikely to
// hit: unit dims, one-off-a-tile dims, and dims crossing the packed-panel
// (NC) and k-slab (KC) block boundaries.
var gemmEdgeShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{5, 1, 9},
	{9, 13, 1},
	{gemmMR, gemmKC, gemmNR},
	{gemmMR - 1, 3, gemmNR - 1},
	{gemmMR + 1, 5, gemmNR + 1},
	{2*gemmMR + 3, gemmKC + 1, gemmNR + 2},
	{3, gemmKC - 1, gemmNC + 1},
	{7, 2*gemmKC + 5, 2*gemmNC + 3},
	{16, 16, 4096%(2*gemmNC) + 2*gemmNC}, // NVSA-head-like wide n
}

func TestTiledMatMulBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range gemmEdgeShapes {
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
		want := matMulNaive(a, b)
		if !bitsEqual(t, "MatMul(tiled,serial)", want, matMulTiled(Serial, a, b)) {
			t.Fatalf("shape m=%d k=%d n=%d", s.m, s.k, s.n)
		}
	}
	prop := func(m8, k16, n16 uint16, seed int64) bool {
		m, k, n := int(m8%24)+1, int(k16%600)+1, int(n16%300)+1
		rng := rand.New(rand.NewSource(seed))
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		return bitsEqual(t, "MatMul(tiled)", matMulNaive(a, b), matMulTiled(Serial, a, b))
	}
	if err := quick.Check(prop, equivCfg(11)); err != nil {
		t.Error(err)
	}
}

func TestTiledMatMulBitIdenticalOnParallelBackends(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		rng := rand.New(rand.NewSource(43))
		for _, s := range gemmEdgeShapes {
			a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
			if !bitsEqual(t, "MatMul(tiled,parallel)", matMulNaive(a, b), matMulTiled(be, a, b)) {
				t.Fatalf("shape m=%d k=%d n=%d", s.m, s.k, s.n)
			}
		}
	})
}

// convEdgeCases cover padded vs unpadded, strided, kernel-as-big-as-input,
// and width-below-the-interior-block shapes.
var convEdgeCases = []struct{ n, cin, cout, h, w, kh, kw, stride, pad int }{
	{1, 1, 1, 1, 1, 1, 1, 1, 0},
	{1, 1, 1, 3, 3, 3, 3, 1, 0},    // output 1×1, no interior
	{1, 2, 3, 8, 8, 3, 3, 1, 1},    // classic padded same-conv
	{2, 3, 4, 9, 9, 3, 3, 2, 1},    // strided + padded
	{1, 1, 2, 5, 5, 5, 5, 1, 2},    // kernel covers input, heavy padding
	{1, 4, 4, 6, 17, 3, 3, 1, 1},   // wide rows: interior 4-block + remainder
	{1, 2, 2, 7, 7, 1, 1, 1, 0},    // 1×1 conv
	{3, 1, 8, 32, 32, 3, 3, 1, 1},  // NVSA CNN first-layer shape
	{1, 3, 16, 32, 32, 3, 3, 1, 1}, // VSAIT encoder shape
	{1, 2, 2, 10, 10, 3, 3, 3, 2},  // stride > 1 with pad
	{1, 1, 1, 4, 12, 2, 4, 2, 3},   // asymmetric kernel, big pad
}

func TestTiledConv2DBitIdenticalToNaive(t *testing.T) {
	withBackends(t, func(t *testing.T, be *backend.Parallel) {
		rng := rand.New(rand.NewSource(44))
		for _, c := range convEdgeCases {
			in := randTensor(rng, c.n, c.cin, c.h, c.w)
			w := randTensor(rng, c.cout, c.cin, c.kh, c.kw)
			bias := randTensor(rng, c.cout)
			for _, bs := range []*Tensor{nil, bias} {
				want := Conv2DKernelOn(Serial, KernelNaive, in, w, bs, c.stride, c.pad)
				if !bitsEqual(t, "Conv2D(tiled,serial)", want, Conv2DKernelOn(Serial, KernelTiled, in, w, bs, c.stride, c.pad)) {
					t.Fatalf("case %+v bias=%v", c, bs != nil)
				}
				if !bitsEqual(t, "Conv2D(tiled,parallel)", want, Conv2DKernelOn(be, KernelTiled, in, w, bs, c.stride, c.pad)) {
					t.Fatalf("case %+v bias=%v", c, bs != nil)
				}
			}
		}
	})
}

func TestTiledConv2DBitIdenticalRandomShapes(t *testing.T) {
	prop := func(cin8, cout8, h8, w8, s8, p8 uint8, seed int64) bool {
		cin, cout := int(cin8%4)+1, int(cout8%5)+1
		h, w := int(h8%14)+3, int(w8%20)+3
		kh, kw := 3, 3
		stride, pad := int(s8%3)+1, int(p8%3)
		if h+2*pad < kh || w+2*pad < kw {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		in := randTensor(rng, 1, cin, h, w)
		wt := randTensor(rng, cout, cin, kh, kw)
		want := Conv2DKernelOn(Serial, KernelNaive, in, wt, nil, stride, pad)
		return bitsEqual(t, "Conv2D(tiled)", want, Conv2DKernelOn(Serial, KernelTiled, in, wt, nil, stride, pad))
	}
	if err := quick.Check(prop, equivCfg(13)); err != nil {
		t.Error(err)
	}
}

// TestMatVecMatchesMatMulColumn pins the package accumulation contract:
// MatVec accumulates in float32, so MatVec(a, x) is bit-identical to
// MatMul(a, x viewed as a k×1 column) under every kernel — on the serial
// runner and on 2- and 3-worker backends, whose chunk edges fall off the
// four-row blocks of the GEMV loop. The 2700×4096 NVSA joint-codebook
// shape runs once.
func TestMatVecMatchesMatMulColumn(t *testing.T) {
	runners := []Runner{Serial}
	for _, w := range []int{2, 3} {
		be := backend.NewParallel(w)
		defer be.Close()
		runners = append(runners, be)
	}
	check := func(a, x *Tensor) bool {
		m, k := a.Shape()[0], a.Shape()[1]
		col := New(k, 1)
		copy(col.Data(), x.Data())
		for _, kern := range []Kernel{KernelNaive, KernelTiled, KernelAuto} {
			mm := MatMulKernelOn(Serial, kern, a, col)
			for ri, r := range runners {
				mv := MatVecOn(r, a, x)
				for i, v := range mv.Data() {
					if mm.Data()[i] != v {
						t.Errorf("%dx%d runner %d kernel %v: element %d: MatVec %v, MatMul column %v", m, k, ri, kern, i, v, mm.Data()[i])
						return false
					}
				}
			}
		}
		return true
	}
	prop := func(m8, k16 uint16, seed int64) bool {
		m, k := int(m8%160)+1, int(k16%700)+1
		rng := rand.New(rand.NewSource(seed))
		return check(randTensor(rng, m, k), randTensor(rng, k))
	}
	if err := quick.Check(prop, equivCfg(14)); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(15))
	check(randTensor(rng, 2700, 4096), randTensor(rng, 4096))
}

// matVecsQueryCounts straddle the micro-tile width: below it (the MatVecOn
// loop), exact multiples, and one to three past a multiple, where padding
// columns fill the last tile.
var matVecsQueryCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16, 17}

// TestMatVecsMatchesMatVec pins the batched cleanup kernel: output j of
// MatVecsOn is bit-identical to MatVecOn(a, xs[j]) for every query count,
// kernel and runner (2- and 3-worker chunk edges fall inside four-row
// blocks). The 2700×4096 NVSA joint-codebook shape runs once with the 16
// queries of one scene-inference stage.
func TestMatVecsMatchesMatVec(t *testing.T) {
	runners := []Runner{Serial}
	for _, w := range []int{2, 3} {
		be := backend.NewParallel(w)
		defer be.Close()
		runners = append(runners, be)
	}
	check := func(a *Tensor, xs []*Tensor) bool {
		want := make([]*Tensor, len(xs))
		for j, x := range xs {
			want[j] = MatVecOn(Serial, a, x)
		}
		for ri, r := range runners {
			for _, kern := range []Kernel{KernelAuto, KernelNaive, KernelTiled} {
				got := MatVecsOn(r, kern, a, xs)
				if len(got) != len(xs) {
					t.Errorf("MatVecs returned %d outputs for %d queries", len(got), len(xs))
					return false
				}
				for j := range xs {
					name := fmt.Sprintf("MatVecs %v n=%d runner %d kernel %v query %d", a.Shape(), len(xs), ri, kern, j)
					if !bitsEqual(t, name, want[j], got[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	queries := func(rng *rand.Rand, n, k int) []*Tensor {
		xs := make([]*Tensor, n)
		for j := range xs {
			xs[j] = randTensor(rng, k)
		}
		return xs
	}
	prop := func(m8, k16 uint16, seed int64) bool {
		m, k := int(m8%160)+1, int(k16%700)+1
		rng := rand.New(rand.NewSource(seed))
		a := randTensor(rng, m, k)
		for _, n := range matVecsQueryCounts {
			if !check(a, queries(rng, n, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, equivCfg(16)); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(17))
	check(randTensor(rng, 2700, 4096), queries(rng, 16, 4096))
}

// TestMatVecsIsolatesNonFinite: queries share the matrix, never each
// other's columns, so a NaN or Inf in one query reaches only that query's
// output — the padded GEMM must not smear it across the batch.
func TestMatVecsIsolatesNonFinite(t *testing.T) {
	be := backend.NewParallel(2)
	defer be.Close()
	rng := rand.New(rand.NewSource(18))
	a := randTensor(rng, 37, 29)
	xs := make([]*Tensor, 6)
	for j := range xs {
		xs[j] = randTensor(rng, 29)
	}
	xs[1].Data()[3] = float32(math.NaN())
	xs[4].Data()[0] = float32(math.Inf(1))
	for _, r := range []Runner{Serial, be} {
		for _, kern := range []Kernel{KernelAuto, KernelNaive, KernelTiled} {
			got := MatVecsOn(r, kern, a, xs)
			for j, x := range xs {
				want := MatVecOn(Serial, a, x)
				poisoned := j == 1 || j == 4
				if got[j].AllFinite() == poisoned {
					t.Fatalf("kernel %v query %d: all finite = %v, want %v", kern, j, !poisoned, poisoned)
				}
				for i, v := range want.Data() {
					g := got[j].Data()[i]
					if g != v && !(math.IsNaN(float64(g)) && math.IsNaN(float64(v))) {
						t.Fatalf("kernel %v query %d element %d: MatVecs %v, MatVec %v", kern, j, i, g, v)
					}
				}
			}
		}
	}
}

// TestGemmDispatchTable pins the auto-dispatch decisions: pure shape
// function, skinny/small shapes stay naive, large shapes go tiled.
func TestGemmDispatchTable(t *testing.T) {
	cases := []struct {
		m, k, n int
		want    Kernel
	}{
		{1, 4096, 4096, KernelNaive},          // NVSA codebook encode: m below tile
		{4096, 4096, 1, KernelNaive},          // GEMV-like: n below tile
		{4, 16, 4, KernelNaive},               // under the work floor
		{16, 16, 4096, KernelTiled},           // NVSA linear head
		{256, 256, 256, KernelTiled},          // square GEMM
		{gemmMR, gemmKC, gemmNR, KernelNaive}, // 2·4·512·4 = 16 KFLOP < floor
	}
	for _, c := range cases {
		if got := gemmKernel(KernelAuto, c.m, c.k, c.n); got != c.want {
			t.Errorf("gemmKernel(auto, %d, %d, %d) = %v, want %v", c.m, c.k, c.n, got, c.want)
		}
		// Explicit selections always win over the table.
		if got := gemmKernel(KernelNaive, c.m, c.k, c.n); got != KernelNaive {
			t.Errorf("gemmKernel(naive, ...) = %v", got)
		}
		if got := gemmKernel(KernelTiled, c.m, c.k, c.n); got != KernelTiled {
			t.Errorf("gemmKernel(tiled, ...) = %v", got)
		}
	}
	if got := convKernel(KernelAuto, convTiledMinWout-1); got != KernelNaive {
		t.Errorf("convKernel(auto, narrow) = %v, want naive", got)
	}
	if got := convKernel(KernelAuto, 32); got != KernelTiled {
		t.Errorf("convKernel(auto, 32) = %v, want tiled", got)
	}
}

// TestKernelString pins the kernel names the -kernel-bench report
// (BENCH_kernels.json) carries in its "kernel" and "auto_pick" fields.
func TestKernelString(t *testing.T) {
	for k, want := range map[Kernel]string{KernelAuto: "auto", KernelNaive: "naive", KernelTiled: "tiled"} {
		if got := k.String(); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestPool2DValidation pins the pooling window/stride validation: k<1 and
// s<1 must panic with a diagnostic instead of the raw divide-by-zero (s=0)
// or silently bogus output the unvalidated loops produced.
func TestPool2DValidation(t *testing.T) {
	in := New(1, 1, 4, 4)
	cases := []struct {
		name string
		k, s int
	}{
		{"k=0", 0, 1}, {"k=-1", -1, 1}, {"s=0", 2, 0}, {"s=-2", 2, -2},
	}
	for _, c := range cases {
		for _, pool := range []struct {
			name string
			fn   func()
		}{
			{"MaxPool2D", func() { MaxPool2D(in, c.k, c.s) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: expected panic", pool.name, c.name)
					}
				}()
				pool.fn()
			}()
		}
	}
	// Valid parameters still work.
	out := MaxPool2D(in, 2, 2)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("MaxPool2D valid case produced %v", out.Shape())
	}
}
