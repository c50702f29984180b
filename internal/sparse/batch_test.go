package sparse

import (
	"math"
	"testing"

	"github.com/neurosym/nsbench/internal/backend"
	"github.com/neurosym/nsbench/internal/tensor"
)

// SDDMMBatchOn and SpMMBatchOn promise that every item of a batch is bit
// for bit the solo CSR.SDDMM / CSR.SpMM result, on any backend. The
// pattern is half dense so that each batched dispatch splits into several
// chunks on the parallel backend.
func TestBatchKernelsMatchSoloBitForBit(t *testing.T) {
	const rows, cols, k, w, batch = 37, 29, 19, 13, 5
	g := tensor.NewRNG(17)
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g.Rand().Float32() < 0.5 {
				coo.Append(i, j, float32(g.Rand().NormFloat64()))
			}
		}
	}
	pattern := coo.ToCSR()
	a := g.Normal(0, 1, batch*rows, k)
	b := g.Normal(0, 1, batch*cols, k)
	dense := g.Normal(0, 1, batch*cols, w)

	same := func(got, want []float32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	par := backend.NewParallel(3)
	defer par.Close()
	for _, be := range []backend.Backend{backend.Serial{}, par} {
		sampled := SDDMMBatchOn(be, pattern, a, b, batch)
		for i, got := range sampled {
			want := pattern.SDDMM(tensor.Slice(a, i*rows, (i+1)*rows), tensor.Slice(b, i*cols, (i+1)*cols))
			if !same(got.Val, want.Val) {
				t.Fatalf("%s: SDDMM item %d differs from the solo call", be.Name(), i)
			}
		}
		// The sampled matrices differ per item, so SpMM reads a distinct
		// matrix for every row block.
		out := SpMMBatchOn(be, sampled, dense)
		for i, m := range sampled {
			want := m.SpMM(tensor.Slice(dense, i*cols, (i+1)*cols))
			if !same(out.Data()[i*rows*w:(i+1)*rows*w], want.Data()) {
				t.Fatalf("%s: SpMM item %d differs from the solo call", be.Name(), i)
			}
		}
	}
}
