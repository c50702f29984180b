package nn

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
)

// ConvBlock is conv → batchnorm → ReLU with optional 2×2 max pooling.
type ConvBlock struct {
	Conv *Conv2d
	BN   *BatchNorm2d
	Pool bool
}

// NewConvBlock constructs a standard conv block.
func NewConvBlock(g *tensor.RNG, name string, cin, cout, k, stride, pad int, pool bool) *ConvBlock {
	return &ConvBlock{
		Conv: NewConv2d(g, name+".conv", cin, cout, k, stride, pad),
		BN:   NewBatchNorm2d(g, name+".bn", cout),
		Pool: pool,
	}
}

// Forward applies the block.
func (b *ConvBlock) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	return b.ForwardBatch(e, x, 1)
}

// ForwardBatch applies the block over `items` stacked batch blocks.
func (b *ConvBlock) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	x = b.Conv.ForwardBatch(e, x, items)
	x = b.BN.Forward(e, x)
	x = e.ReLU(x)
	if b.Pool {
		x = e.MaxPool2D(x, 2, 2)
	}
	return x
}

// Register records the block parameters.
func (b *ConvBlock) Register(e *ops.Engine) {
	b.Conv.Register(e)
	b.BN.Register(e)
}

// ResidualBlock is the basic two-conv residual unit used by the ResNet-style
// perception backbones of NVSA, PrAE and VSAIT.
type ResidualBlock struct {
	C1, C2 *Conv2d
	B1, B2 *BatchNorm2d
}

// NewResidualBlock constructs a same-shape residual block over c channels.
func NewResidualBlock(g *tensor.RNG, name string, c int) *ResidualBlock {
	return &ResidualBlock{
		C1: NewConv2d(g, name+".conv1", c, c, 3, 1, 1),
		C2: NewConv2d(g, name+".conv2", c, c, 3, 1, 1),
		B1: NewBatchNorm2d(g, name+".bn1", c),
		B2: NewBatchNorm2d(g, name+".bn2", c),
	}
}

// Forward applies conv-bn-relu-conv-bn, adds the skip connection, and applies ReLU.
func (r *ResidualBlock) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	return r.ForwardBatch(e, x, 1)
}

// ForwardBatch applies the block over `items` stacked batch blocks.
func (r *ResidualBlock) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	y := r.C1.ForwardBatch(e, x, items)
	y = r.B1.Forward(e, y)
	y = e.ReLU(y)
	y = r.C2.ForwardBatch(e, y, items)
	y = r.B2.Forward(e, y)
	y = e.Add(y, x)
	return e.ReLU(y)
}

// Register records the block parameters.
func (r *ResidualBlock) Register(e *ops.Engine) {
	r.C1.Register(e)
	r.C2.Register(e)
	r.B1.Register(e)
	r.B2.Register(e)
}

// CNNConfig configures a small configurable CNN encoder.
type CNNConfig struct {
	InChannels int   // input channels
	InSize     int   // input height = width
	Channels   []int // output channels per stage (each stage pools 2×)
	Residual   bool  // insert one residual block per stage
	OutDim     int   // final embedding width (via a Linear head); 0 = raw features
}

// CNN is a small CNN encoder: repeated conv stages with pooling, a global
// average pool and an optional linear head. It is the stand-in for the
// perception backbones of the characterized workloads.
type CNN struct {
	cfg    CNNConfig
	blocks []Layer
	head   *Linear
}

// NewCNN builds the encoder.
func NewCNN(g *tensor.RNG, name string, cfg CNNConfig) *CNN {
	if len(cfg.Channels) == 0 {
		panic("nn: NewCNN needs at least one stage")
	}
	c := &CNN{cfg: cfg}
	cin := cfg.InChannels
	for i, cout := range cfg.Channels {
		c.blocks = append(c.blocks, NewConvBlock(g, fmt.Sprintf("%s.stage%d", name, i), cin, cout, 3, 1, 1, true))
		if cfg.Residual {
			c.blocks = append(c.blocks, NewResidualBlock(g, fmt.Sprintf("%s.res%d", name, i), cout))
		}
		cin = cout
	}
	if cfg.OutDim > 0 {
		c.head = NewLinear(g, name+".head", cin, cfg.OutDim, true)
	}
	return c
}

// Forward encodes an N×C×H×W batch into N×OutDim embeddings (or N×C
// pooled features when OutDim is 0).
func (c *CNN) Forward(e *ops.Engine, x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardBatch(e, x, 1)
}

// ForwardBatch encodes `items` stacked N×C×H×W blocks in one pass,
// accounting shared weight traffic per item.
func (c *CNN) ForwardBatch(e *ops.Engine, x *tensor.Tensor, items int) *tensor.Tensor {
	for _, b := range c.blocks {
		if bl, ok := b.(BatchLayer); ok {
			x = bl.ForwardBatch(e, x, items)
		} else {
			x = b.Forward(e, x)
		}
	}
	x = e.GlobalAvgPool2D(x)
	if c.head != nil {
		x = c.head.ForwardBatch(e, x, items)
	}
	return x
}

// Register records all parameters.
func (c *CNN) Register(e *ops.Engine) {
	for _, b := range c.blocks {
		b.Register(e)
	}
	if c.head != nil {
		c.head.Register(e)
	}
}
