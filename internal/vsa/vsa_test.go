package vsa

import (
	"fmt"
	"testing"

	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
)

func TestCodebookDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate symbol")
		}
	}()
	NewCodebook(NewSpace(MAP, 64, 8), []string{"x", "x"})
}

func TestCodebookScoresShapeAndBytes(t *testing.T) {
	s := NewSpace(HRR, 256, 9)
	cb := NewCodebook(s, []string{"p", "q", "r", "t", "u"})
	if cb.Bytes() != int64(5*256*4) {
		t.Fatalf("codebook bytes = %d", cb.Bytes())
	}
	if cb.Len() != 5 {
		t.Fatalf("codebook len = %d", cb.Len())
	}
}

// The encoder's projection must hash a small perturbation of a feature
// vector near it and an unrelated vector far from it. The hashes are
// computed the way VSAIT's encodePatches does: one batched
// sign(features · Projᵀ) over the engine.
func TestLSHEncoderLocality(t *testing.T) {
	s := NewSpace(MAP, 2048, 10)
	enc := NewLSHEncoder(s, 32, 11)
	e := ops.New()
	g := NewSpace(MAP, 32, 12) // reuse RNG plumbing for feature draws
	f1 := g.rng.Normal(0, 1, 32)
	f2 := f1.Clone()
	for i := 0; i < 3; i++ {
		f2.Data()[i] += 0.01
	}
	f3 := g.rng.Normal(0, 1, 32)
	feats := tensor.Concat(0, f1.Reshape(1, 32), f2.Reshape(1, 32), f3.Reshape(1, 32))
	hv := e.Sign(e.MatMul(feats, e.Transpose(enc.Proj)))
	row := func(i int) *tensor.Tensor { return tensor.FromSlice(hv.Data()[i*s.Dim:(i+1)*s.Dim], s.Dim) }
	near := tensor.CosineSimilarity(row(0), row(1))
	far := tensor.CosineSimilarity(row(0), row(2))
	if near < 0.9 {
		t.Fatalf("LSH near similarity = %v", near)
	}
	if far > near-0.3 {
		t.Fatalf("LSH failed to separate: near=%v far=%v", near, far)
	}
	if enc.Bytes() != int64(2048*32*4) {
		t.Fatalf("encoder bytes = %d", enc.Bytes())
	}
}

func TestModelStrings(t *testing.T) {
	if MAP.String() != "MAP" || HRR.String() != "HRR" {
		t.Fatal("model strings wrong")
	}
	if fmt.Sprint(Model(9)) != "Model(9)" {
		t.Fatal("unknown model string wrong")
	}
}
