package tensor

import "fmt"

// Transpose returns the transpose of a rank-2 tensor, materialized.
func Transpose(a *Tensor) *Tensor { return TransposeOn(Serial, a) }

// TransposeOn is Transpose with its output drawn from r.
func TransposeOn(r Runner, a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank-2 input, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := emptyOn(r, n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// PermuteOn reorders the axes of a according to perm (a permutation of
// 0..rank-1) and materializes the result, drawn from ru.
func PermuteOn(ru Runner, a *Tensor, perm ...int) *Tensor {
	r := a.Rank()
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: Permute needs %d axes, got %v", r, perm))
	}
	seen := make([]bool, r)
	outShape := make([]int, r)
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: Permute invalid permutation %v for rank %d", perm, r))
		}
		seen[p] = true
		outShape[i] = a.shape[p]
	}
	out := emptyOn(ru, outShape...)

	inStrides := make([]int, r)
	s := 1
	for i := r - 1; i >= 0; i-- {
		inStrides[i] = s
		s *= a.shape[i]
	}
	// Walk the output in order, computing the source offset from permuted coords.
	idx := make([]int, r)
	for o := range out.data {
		src := 0
		for i := 0; i < r; i++ {
			src += idx[i] * inStrides[perm[i]]
		}
		out.data[o] = a.data[src]
		for i := r - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < outShape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// Concat concatenates tensors along the given axis. All inputs must agree on
// every other dimension.
func Concat(axis int, ts ...*Tensor) *Tensor { return ConcatOn(Serial, axis, ts...) }

// ConcatOn is Concat with its output drawn from ru.
func ConcatOn(ru Runner, axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	r := ts[0].Rank()
	if axis < 0 || axis >= r {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, r))
	}
	outShape := append([]int(nil), ts[0].shape...)
	total := ts[0].shape[axis]
	for _, t := range ts[1:] {
		if t.Rank() != r {
			panic("tensor: Concat rank mismatch")
		}
		for i := 0; i < r; i++ {
			if i != axis && t.shape[i] != outShape[i] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on axis %d", outShape, t.shape, i))
			}
		}
		total += t.shape[axis]
	}
	outShape[axis] = total
	out := emptyOn(ru, outShape...)

	outer, inner := 1, 1
	for i := 0; i < axis; i++ {
		outer *= outShape[i]
	}
	for i := axis + 1; i < r; i++ {
		inner *= outShape[i]
	}
	rowLen := total * inner
	off := 0
	for _, t := range ts {
		tAxis := t.shape[axis]
		for o := 0; o < outer; o++ {
			src := t.data[o*tAxis*inner : (o+1)*tAxis*inner]
			dst := out.data[o*rowLen+off : o*rowLen+off+tAxis*inner]
			copy(dst, src)
		}
		off += tAxis * inner
	}
	return out
}

// StackOn stacks equal-shape tensors along a new leading axis, with its
// output drawn from r.
func StackOn(r Runner, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Stack of no tensors")
	}
	shape := append([]int{len(ts)}, ts[0].shape...)
	out := emptyOn(r, shape...)
	n := ts[0].Size()
	for i, t := range ts {
		if !t.SameShape(ts[0]) {
			panic(fmt.Sprintf("tensor: Stack shape mismatch %v vs %v", t.shape, ts[0].shape))
		}
		copy(out.data[i*n:(i+1)*n], t.data)
	}
	return out
}

// Slice extracts rows [lo,hi) along the leading axis, materialized.
func Slice(a *Tensor, lo, hi int) *Tensor { return SliceOn(Serial, a, lo, hi) }

// SliceOn is Slice with its output drawn from r.
func SliceOn(r Runner, a *Tensor, lo, hi int) *Tensor {
	if a.Rank() == 0 {
		panic("tensor: Slice of scalar")
	}
	d0 := a.shape[0]
	if lo < 0 || hi > d0 || lo > hi {
		panic(fmt.Sprintf("tensor: Slice [%d,%d) out of range for leading dim %d", lo, hi, d0))
	}
	inner := a.Size() / max(d0, 1)
	outShape := append([]int{hi - lo}, a.shape[1:]...)
	out := emptyOn(r, outShape...)
	copy(out.data, a.data[lo*inner:hi*inner])
	return out
}

// SliceAxisOn returns a[..., lo:hi, ...] along the given axis,
// materialized in a buffer drawn from ru. It generalizes Slice to any
// axis, which batched workloads need to carve per-item panels out of a
// (batch, panels, ...) embedding block.
func SliceAxisOn(ru Runner, a *Tensor, axis, lo, hi int) *Tensor {
	r := a.Rank()
	if axis < 0 || axis >= r {
		panic(fmt.Sprintf("tensor: SliceAxis axis %d out of range for rank %d", axis, r))
	}
	d := a.shape[axis]
	if lo < 0 || hi > d || lo > hi {
		panic(fmt.Sprintf("tensor: SliceAxis [%d,%d) out of range for dim %d", lo, hi, d))
	}
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= a.shape[i]
	}
	inner := 1
	for i := axis + 1; i < r; i++ {
		inner *= a.shape[i]
	}
	outShape := append([]int(nil), a.shape...)
	outShape[axis] = hi - lo
	out := emptyOn(ru, outShape...)
	for o := 0; o < outer; o++ {
		src := (o*d + lo) * inner
		dst := o * (hi - lo) * inner
		copy(out.data[dst:dst+(hi-lo)*inner], a.data[src:src+(hi-lo)*inner])
	}
	return out
}

// Gather selects rows of a (along the leading axis) by index, producing
// len(idx) rows. It models the irregular-access data-transformation
// operators prominent in symbolic workloads.
func Gather(a *Tensor, idx []int) *Tensor { return GatherOn(Serial, a, idx) }

// GatherOn is Gather with its output drawn from r.
func GatherOn(r Runner, a *Tensor, idx []int) *Tensor {
	if a.Rank() == 0 {
		panic("tensor: Gather of scalar")
	}
	d0 := a.shape[0]
	inner := a.Size() / max(d0, 1)
	outShape := append([]int{len(idx)}, a.shape[1:]...)
	out := emptyOn(r, outShape...)
	for o, i := range idx {
		if i < 0 || i >= d0 {
			panic(fmt.Sprintf("tensor: Gather index %d out of range for leading dim %d", i, d0))
		}
		copy(out.data[o*inner:(o+1)*inner], a.data[i*inner:(i+1)*inner])
	}
	return out
}

// OuterExpandOn writes the flat operands of the outer product of a and b
// without index vectors: ea repeats each element of a len(b) times and eb
// tiles b len(a) times, so ea[i*lb+j] = a[i] and eb[i*lb+j] = b[j]. It is
// bit-identical to Gather over a and b with the equivalent index vectors.
// Every element of ea and eb is written, so both may be unzeroed scratch.
// Rows i of the expansion are chunked on r.
func OuterExpandOn(r Runner, ea, eb, a, b *Tensor) {
	ad, bd := a.data, b.data
	la, lb := len(ad), len(bd)
	if len(ea.data) != la*lb || len(eb.data) != la*lb {
		panic(fmt.Sprintf("tensor: OuterExpand of %d×%d needs %d-element outputs, got %d and %d", la, lb, la*lb, len(ea.data), len(eb.data)))
	}
	r.For(la, max(1, grainEltwise/max(lb, 1)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row, v := ea.data[i*lb:(i+1)*lb], ad[i]
			for j := range row {
				row[j] = v
			}
		}
		// Tile b by doubling copies: log2(hi-lo) memmoves, not hi-lo.
		tile := eb.data[lo*lb : hi*lb]
		for n := copy(tile, bd); n < len(tile); {
			n += copy(tile[n:], tile[:n])
		}
	})
}

// MaskedSelectOn returns a flat tensor, drawn from r, of the elements of
// a where mask is nonzero. mask must have a's shape.
func MaskedSelectOn(r Runner, a, mask *Tensor) *Tensor {
	if !a.SameShape(mask) {
		panic(fmt.Sprintf("tensor: MaskedSelect shape mismatch %v vs %v", a.shape, mask.shape))
	}
	n := 0
	for _, m := range mask.data {
		if m != 0 {
			n++
		}
	}
	out := emptyOn(r, n)
	n = 0
	for i, m := range mask.data {
		if m != 0 {
			out.data[n] = a.data[i]
			n++
		}
	}
	return out
}

// RollOn circularly shifts a flat tensor right by k positions (k may be
// negative or exceed the length), with its output drawn from r.
func RollOn(r Runner, a *Tensor, k int) *Tensor {
	n := a.Size()
	out := emptyOn(r, a.shape...)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		out.data[(i+k)%n] = a.data[i]
	}
	return out
}

// OneHot returns a length-n vector with a 1 at index i.
func OneHot(i, n int) *Tensor {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: OneHot index %d out of range [0,%d)", i, n))
	}
	t := New(n)
	t.data[i] = 1
	return t
}
