package tensor

// Cost functions: analytic FLOP and byte counts for each kernel class.
// These feed the trace layer (per-event accounting) and the hardware models
// (roofline and utilization estimation). Byte counts are "algorithmic"
// traffic — each operand read once, each output written once — matching
// the operational-intensity convention used in the paper's roofline plot.

const bytesPerElem = 4 // float32

// FlopsMatMul returns the FLOP count of an m×k by k×n GEMM (one multiply
// plus one add per inner-product step).
func FlopsMatMul(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}

// BytesMatMul returns the algorithmic memory traffic of an m×k × k×n GEMM.
func BytesMatMul(m, k, n int) int64 {
	return bytesPerElem * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n))
}

// FlopsConv2D returns the FLOP count of a convolution producing an
// n×cout×hout×wout output from cin input channels and a kh×kw kernel.
func FlopsConv2D(n, cin, cout, hout, wout, kh, kw int) int64 {
	return 2 * int64(n) * int64(cout) * int64(hout) * int64(wout) * int64(cin) * int64(kh) * int64(kw)
}

// BytesConv2D returns the algorithmic traffic of a convolution.
func BytesConv2D(n, cin, h, w, cout, hout, wout, kh, kw int) int64 {
	in := int64(n) * int64(cin) * int64(h) * int64(w)
	wt := int64(cout) * int64(cin) * int64(kh) * int64(kw)
	out := int64(n) * int64(cout) * int64(hout) * int64(wout)
	return bytesPerElem * (in + wt + out)
}

// FlopsEltwise returns the FLOP count of an element-wise op over n elements
// with c arithmetic operations per element.
func FlopsEltwise(n int, c int) int64 { return int64(n) * int64(c) }

// BytesEltwiseBinary returns traffic of a binary element-wise op (two reads,
// one write per element).
func BytesEltwiseBinary(n int) int64 { return bytesPerElem * 3 * int64(n) }

// BytesEltwiseUnary returns traffic of a unary element-wise op.
func BytesEltwiseUnary(n int) int64 { return bytesPerElem * 2 * int64(n) }

// FlopsCircularConvDirect returns the FLOP count of a direct O(n²)
// circular convolution.
func FlopsCircularConvDirect(n int) int64 { return 2 * int64(n) * int64(n) }

// FlopsCircularConvFFT returns the FLOP count of an FFT-based circular
// convolution (three FFTs at ~5 n log2 n plus the pointwise product).
func FlopsCircularConvFFT(n int) int64 {
	logn := int64(0)
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	return 3*5*int64(n)*logn + 6*int64(n)
}

// BytesCircularConv returns the traffic of a circular convolution
// (two operand reads, one output write; FFT temporaries excluded by the
// algorithmic-traffic convention).
func BytesCircularConv(n int) int64 { return bytesPerElem * 3 * int64(n) }

// FlopsReduce returns the FLOP count of a full reduction over n elements.
func FlopsReduce(n int) int64 { return int64(n) }

// BytesReduce returns traffic of a reduction (read all, write result).
func BytesReduce(n, outN int) int64 { return bytesPerElem * (int64(n) + int64(outN)) }

// FlopsSoftmax returns the FLOP count of softmax over n elements
// (max, sub+exp, sum, div ≈ 4 passes plus exp cost folded into a constant).
func FlopsSoftmax(n int) int64 { return 8 * int64(n) }

// BytesCopy returns traffic of moving n elements (read + write).
func BytesCopy(n int) int64 { return bytesPerElem * 2 * int64(n) }
