package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/neurosym/nsbench/internal/tensor"
)

func TestCOOBasics(t *testing.T) {
	m := NewCOO(3, 4)
	m.Append(0, 0, 1)
	m.Append(2, 3, 2)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 0) != 1 || d.At(2, 3) != 2 || d.At(1, 1) != 0 {
		t.Fatalf("ToDense = %v", d.Data())
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Append(2, 0, 1)
}

func TestCoalesceMergesDuplicates(t *testing.T) {
	m := NewCOO(2, 2)
	m.Append(1, 1, 1)
	m.Append(0, 0, 2)
	m.Append(1, 1, 3)
	m.Append(0, 0, 4)
	merged := m.Coalesce()
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ after coalesce = %d", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 0) != 6 || d.At(1, 1) != 4 {
		t.Fatalf("coalesced values wrong: %v", d.Data())
	}
	// Entries must now be sorted by (row, col).
	for i := 1; i < m.NNZ(); i++ {
		if m.Row[i-1] > m.Row[i] || (m.Row[i-1] == m.Row[i] && m.Col[i-1] >= m.Col[i]) {
			t.Fatal("coalesced entries not sorted")
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	g := tensor.NewRNG(3)
	d := g.Normal(0, 1, 5, 7)
	// Zero some entries.
	for i := 0; i < d.Size(); i += 3 {
		d.Data()[i] = 0
	}
	m := FromDense(d, 0)
	back := m.ToDense()
	for i := range d.Data() {
		if back.Data()[i] != d.Data()[i] {
			t.Fatal("FromDense/ToDense round trip failed")
		}
	}
}

func TestCSRSpMMMatchesDense(t *testing.T) {
	g := tensor.NewRNG(5)
	d := g.Normal(0, 1, 4, 6)
	for i := 0; i < d.Size(); i += 3 {
		d.Data()[i] = 0
	}
	csr := FromDense(d, 0).ToCSR()
	b := g.Normal(0, 1, 6, 3)
	got := csr.SpMM(b)
	want := tensor.MatMul(d, b)
	for i := range want.Data() {
		diff := got.Data()[i] - want.Data()[i]
		if diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("SpMM[%d] = %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestSDDMM(t *testing.T) {
	// Pattern with ones at (0,0) and (1,2); A·Bᵀ sampled there.
	p := NewCOO(2, 3)
	p.Append(0, 0, 1)
	p.Append(1, 2, 2)
	csr := p.ToCSR()
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)       // rows of A
	b := tensor.FromSlice([]float32{1, 0, 0, 1, 1, 1}, 3, 2) // rows of B
	out := csr.SDDMM(a, b)
	// (A·Bᵀ)(0,0) = 1*1+2*0 = 1; times pattern 1 → 1.
	// (A·Bᵀ)(1,2) = 3*1+4*1 = 7; times pattern 2 → 14.
	dense := out.ToDense()
	if dense.At(0, 0) != 1 || dense.At(1, 2) != 14 {
		t.Fatalf("SDDMM = %v", dense.Data())
	}
}

func TestFlopBytes(t *testing.T) {
	if BytesSpMM(10, 5, 4) != 10*8+10*4*4+5*4*4 {
		t.Fatalf("BytesSpMM = %d", BytesSpMM(10, 5, 4))
	}
}

// randMatrix drives the property test with random sparse matrices.
type randMatrix struct {
	Rows, Cols int
	Entries    [][3]int // r, c, scaled value
}

func (randMatrix) Generate(r *rand.Rand, size int) reflect.Value {
	rows := 1 + r.Intn(8)
	cols := 1 + r.Intn(8)
	n := r.Intn(20)
	entries := make([][3]int, n)
	for i := range entries {
		entries[i] = [3]int{r.Intn(rows), r.Intn(cols), r.Intn(9) - 4}
	}
	return reflect.ValueOf(randMatrix{rows, cols, entries})
}

func TestPropCoalescePreservesSum(t *testing.T) {
	f := func(rm randMatrix) bool {
		m := NewCOO(rm.Rows, rm.Cols)
		var want float64
		for _, e := range rm.Entries {
			m.Append(e[0], e[1], float32(e[2]))
			want += float64(e[2])
		}
		m.Coalesce()
		var got float64
		for _, v := range m.Val {
			got += float64(v)
		}
		return got == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropDenseSparseAgree(t *testing.T) {
	f := func(rm randMatrix) bool {
		m := NewCOO(rm.Rows, rm.Cols)
		for _, e := range rm.Entries {
			m.Append(e[0], e[1], float32(e[2]))
		}
		dense := m.ToDense()
		csr := m.ToCSR()
		back := csr.ToDense()
		for i := range dense.Data() {
			if dense.Data()[i] != back.Data()[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
