package tensor

import "fmt"

// Conv2D computes a 2-D cross-correlation (the deep-learning "convolution")
// of input (N×Cin×H×W) with weights (Cout×Cin×Kh×Kw), plus optional bias
// (Cout), using the given stride and zero padding. The result is
// N×Cout×Hout×Wout with Hout = (H+2p-Kh)/s + 1.
//
// The kernel uses an im2col-free direct loop; it is adequate for the
// workload sizes used in the characterization study and keeps the byte/FLOP
// accounting transparent.
func Conv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	return Conv2DKernelOn(Serial, KernelAuto, input, weight, bias, stride, pad)
}

// Conv2DKernelOn is Conv2D with an explicit kernel choice. The naive
// kernel chunks over (batch, output channel) planes; the tiled kernel
// chunks over output rows with an interior fast path (see conv_tiled.go).
// Each output element is accumulated in the same tap order either way, so
// results are bit-identical for every (runner, kernel) combination.
func Conv2DKernelOn(r Runner, kern Kernel, input, weight, bias *Tensor, stride, pad int) *Tensor {
	if input.Rank() != 4 || weight.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D needs rank-4 input and weight, got %v, %v", input.shape, weight.shape))
	}
	if stride < 1 {
		panic("tensor: Conv2D stride must be >= 1")
	}
	n, cin, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	cout, cin2, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %v vs weight %v", input.shape, weight.shape))
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != cout) {
		panic(fmt.Sprintf("tensor: Conv2D bias shape %v does not match Cout=%d", bias.shape, cout))
	}
	hout := (h+2*pad-kh)/stride + 1
	wout := (w+2*pad-kw)/stride + 1
	if hout < 1 || wout < 1 {
		panic(fmt.Sprintf("tensor: Conv2D produces empty output for input %v kernel %v stride %d pad %d", input.shape, weight.shape, stride, pad))
	}
	out := emptyOn(r, n, cout, hout, wout) // both kernels write every pixel
	in := input.data
	wd := weight.data
	od := out.data
	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	if convKernel(kern, wout) == KernelTiled {
		perRow := 2 * int64(cin) * int64(kh) * int64(kw) * int64(wout)
		r.For(n*cout*hout, grainFor(perRow),
			conv2DRowsTiled(in, wd, bd, od, cin, h, w, cout, hout, wout, kh, kw, stride, pad))
		return out
	}
	perPlane := 2 * int64(cin) * int64(kh) * int64(kw) * int64(hout) * int64(wout)
	r.For(n*cout, grainFor(perPlane), func(lo, hi int) {
		for bc := lo; bc < hi; bc++ {
			b, oc := bc/cout, bc%cout
			var bv float32
			if bias != nil {
				bv = bias.data[oc]
			}
			for oy := 0; oy < hout; oy++ {
				for ox := 0; ox < wout; ox++ {
					var acc float32 = bv
					iy0 := oy*stride - pad
					ix0 := ox*stride - pad
					for ic := 0; ic < cin; ic++ {
						inBase := ((b*cin + ic) * h) * w
						wBase := ((oc*cin + ic) * kh) * kw
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							rowIn := inBase + iy*w
							rowW := wBase + ky*kw
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += in[rowIn+ix] * wd[rowW+kx]
							}
						}
					}
					od[((b*cout+oc)*hout+oy)*wout+ox] = acc
				}
			}
		}
	})
	return out
}

// checkPool2D validates pooling window and stride the same way Conv2DOn
// validates stride: a diagnostic panic instead of the raw integer
// divide-by-zero (s=0) or silent nonsense output (k<1, s<0) the
// unvalidated loops would produce.
func checkPool2D(name string, k, s int) {
	if k < 1 {
		panic(fmt.Sprintf("tensor: %s window must be >= 1, got k=%d", name, k))
	}
	if s < 1 {
		panic(fmt.Sprintf("tensor: %s stride must be >= 1, got s=%d", name, s))
	}
}

// MaxPool2D applies 2-D max pooling with a k×k window and stride s to an
// N×C×H×W tensor.
func MaxPool2D(input *Tensor, k, s int) *Tensor { return MaxPool2DOn(Serial, input, k, s) }

// MaxPool2DOn is MaxPool2D dispatched on r, chunked over (batch, channel).
func MaxPool2DOn(r Runner, input *Tensor, k, s int) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D needs rank-4 input, got %v", input.shape))
	}
	checkPool2D("MaxPool2D", k, s)
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	hout := (h-k)/s + 1
	wout := (w-k)/s + 1
	if hout < 1 || wout < 1 {
		panic(fmt.Sprintf("tensor: MaxPool2D produces empty output for input %v k=%d s=%d", input.shape, k, s))
	}
	out := emptyOn(r, n, c, hout, wout)
	in := input.data
	perPlane := int64(k) * int64(k) * int64(hout) * int64(wout)
	r.For(n*c, grainFor(perPlane), func(lo, hi int) {
		for bc := lo; bc < hi; bc++ {
			base := bc * h * w
			for oy := 0; oy < hout; oy++ {
				for ox := 0; ox < wout; ox++ {
					m := in[base+(oy*s)*w+ox*s]
					for ky := 0; ky < k; ky++ {
						row := base + (oy*s+ky)*w
						for kx := 0; kx < k; kx++ {
							if v := in[row+ox*s+kx]; v > m {
								m = v
							}
						}
					}
					out.data[(bc*hout+oy)*wout+ox] = m
				}
			}
		}
	})
	return out
}

// GlobalAvgPool2D reduces an N×C×H×W tensor to N×C by averaging each channel.
func GlobalAvgPool2D(input *Tensor) *Tensor { return GlobalAvgPool2DOn(Serial, input) }

// GlobalAvgPool2DOn is GlobalAvgPool2D dispatched on r, chunked over
// (batch, channel).
func GlobalAvgPool2DOn(r Runner, input *Tensor) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2D needs rank-4 input, got %v", input.shape))
	}
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	out := emptyOn(r, n, c)
	hw := h * w
	r.For(n*c, grainFor(int64(hw)), func(lo, hi int) {
		for bc := lo; bc < hi; bc++ {
			base := bc * hw
			var s float64
			for i := 0; i < hw; i++ {
				s += float64(input.data[base+i])
			}
			out.data[bc] = float32(s / float64(hw))
		}
	})
	return out
}
