package tensor

import "fmt"

// Accumulation contract: every dense FP32 kernel in this package — GEMM,
// GEMV, conv — accumulates in float32, rounding once per multiply-add in a
// fixed serial order over the reduction dimension. That matches the FP32
// tensor kernels the paper characterizes (cuBLAS sgemm/sgemv accumulate in
// registers at operand precision), makes MatMul(m×k · k×1) and MatVec
// agree bit-for-bit on the same math, and is the contract the tiled
// kernels inherit: a tiled variant may reorder which outputs are in
// flight, never the order of additions within one output.

// MatMul returns the matrix product of a (m×k) and b (k×n) as an m×n tensor.
func MatMul(a, b *Tensor) *Tensor { return MatMulOn(Serial, a, b) }

// MatMulOn is MatMul dispatched on r with the auto kernel: the measured
// dispatch table picks the naive or tiled implementation per shape.
func MatMulOn(r Runner, a, b *Tensor) *Tensor { return MatMulKernelOn(r, KernelAuto, a, b) }

// MatMulKernelOn is MatMul dispatched on r with an explicit kernel choice,
// chunked over output rows. Each output element is accumulated in the same
// serial k-order whatever the kernel and runner (the inner loops stream
// b — or a packed panel of it — and the output row, the cache-friendly
// layout for row-major data), so results are bit-identical for every
// (runner, kernel) combination.
func MatMulKernelOn(r Runner, kern Kernel, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := NewOn(r, m, n) // both kernels accumulate into the output
	ad, bd, od := a.data, b.data, out.data
	if gemmKernel(kern, m, k, n) == KernelTiled {
		r.For(m, grainFor(2*int64(k)*int64(n)), func(lo, hi int) {
			matMulRowsTiled(r, ad, bd, od, k, n, lo, hi)
		})
		return out
	}
	r.For(m, grainFor(2*int64(k)*int64(n)), func(lo, hi int) {
		matMulRows(ad, bd, od, k, n, lo, hi)
	})
	return out
}

// matMulRows computes output rows [lo, hi) of an m×k · k×n product. Every
// a-element participates, including zeros: skipping zero rows would drop
// IEEE 0·Inf → NaN propagation relative to MatVec and make measured kernel
// time depend on input sparsity while the recorded FLOP cost does not —
// skewing the neural/symbolic split the characterization reports.
func matMulRows(ad, bd, od []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			brow := bd[p*n : (p+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatVec returns the matrix-vector product of a (m×k) and x (k) as a length-m vector.
func MatVec(a, x *Tensor) *Tensor { return MatVecOn(Serial, a, x) }

// MatVecOn is MatVec dispatched on r, chunked over output elements. It
// accumulates in float32 under the package accumulation contract (see the
// top of this file): MatVec(a, x) is bit-identical to MatMul(a, x viewed
// as a k×1 column), pinned by TestMatVecMatchesMatMulColumn.
func MatVecOn(r Runner, a, x *Tensor) *Tensor {
	if a.Rank() != 2 || x.Rank() != 1 {
		panic(fmt.Sprintf("tensor: MatVec needs (2,1)-rank operands, got %v x %v", a.shape, x.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if k != x.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x %v", a.shape, x.shape))
	}
	out := emptyOn(r, m)
	ad, xd, od := a.data, x.data, out.data
	r.For(m, grainFor(2*int64(k)), func(lo, hi int) {
		matVecRows(ad, xd, od, k, lo, hi)
	})
	return out
}

// matVecRows computes outputs [lo, hi) of an m×k · k product four rows at
// a time. A single row's float32 add chain is latency-bound; four
// independent chains overlap in the pipeline and share each load of x.
// Every row keeps its own accumulator and the serial p-order, so each
// output is bit-identical to the one-row loop (and to MatMul's column).
func matVecRows(ad, xd, od []float32, k, lo, hi int) {
	xd = xd[:k]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := ad[i*k:][:len(xd)]
		r1 := ad[(i+1)*k:][:len(xd)]
		r2 := ad[(i+2)*k:][:len(xd)]
		r3 := ad[(i+3)*k:][:len(xd)]
		var s0, s1, s2, s3 float32
		for p, v := range xd {
			s0 += r0[p] * v
			s1 += r1[p] * v
			s2 += r2[p] * v
			s3 += r3[p] * v
		}
		od[i], od[i+1], od[i+2], od[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		var s float32
		row := ad[i*k:][:len(xd)]
		for p, v := range row {
			s += v * xd[p]
		}
		od[i] = s
	}
}

// MatVecsOn returns a·xs[j] for every query vector, output j bit-identical
// to MatVecOn(r, a, xs[j]). The queries are independent, so they run as one
// skinny GEMM on kern: packed as the columns of a k×n′ operand and passed
// through MatMulKernelOn, whose column j is MatVec's output j under the
// package accumulation contract. The matrix then streams once per batch
// instead of once per query. n′ rounds n up to the micro-tile width with
// zero columns, so the tiled kernel never drops into its scalar edge path;
// the padded outputs are discarded. The packed operand and the product are
// runner scratch, handed back before returning; the outputs come from r.
func MatVecsOn(r Runner, kern Kernel, a *Tensor, xs []*Tensor) []*Tensor {
	out := make([]*Tensor, len(xs))
	if len(xs) == 0 {
		return out
	}
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatVecs needs a rank-2 matrix, got %v", a.shape))
	}
	m, k := a.shape[0], a.shape[1]
	np := (len(xs) + gemmNR - 1) / gemmNR * gemmNR
	b := NewOn(r, k, np)
	defer r.Release32(b.data)
	for j, x := range xs {
		if x.Rank() != 1 || x.shape[0] != k {
			panic(fmt.Sprintf("tensor: MatVecs dimension mismatch %v x %v", a.shape, x.shape))
		}
		for p, v := range x.data {
			b.data[p*np+j] = v
		}
	}
	prod := MatMulKernelOn(r, kern, a, b).data
	defer r.Release32(prod)
	for j := range xs {
		o := emptyOn(r, m)
		for i := range o.data {
			o.data[i] = prod[i*np+j]
		}
		out[j] = o
	}
	return out
}
