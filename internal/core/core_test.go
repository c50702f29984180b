package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/roofline"
	"github.com/neurosym/nsbench/internal/trace"
	"github.com/neurosym/nsbench/internal/workloads/nvsa"
)

func TestRegistryComplete(t *testing.T) {
	names := WorkloadNames()
	want := append(SuiteNames(), "NeuralBaseline", "AlphaGo", "GNN+attention", "NSVQA")
	if len(names) != len(want) {
		t.Fatalf("registered %d workloads, want %d", len(names), len(want))
	}
	for _, n := range want {
		w, err := BuildWorkload(n)
		if err != nil {
			t.Fatalf("BuildWorkload(%s): %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("workload %s reports name %s", n, w.Name())
		}
	}
	if _, err := BuildWorkload("GPT"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestWorkloadsOwnNoBackend pins who owns execution backends: the caller
// that runs the engine (Options.Pool), never the workload. A registered
// workload with a Close method would be holding something that outlives a
// run.
func TestWorkloadsOwnNoBackend(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.(interface{ Close() }); ok {
			t.Errorf("%s (%T) has a Close method; workloads hold models, not execution backends", name, w)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RegisterWorkload("LNN", "", nil)
}

func TestCharacterizeLNN(t *testing.T) {
	w, err := BuildWorkload("LNN")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "LNN" || r.Total <= 0 {
		t.Fatalf("report = %+v", r)
	}
	if r.NeuralTime+r.SymbolicTime != r.Total {
		t.Fatal("phase times must sum to total")
	}
	if r.SymbolicShare <= 0 || r.SymbolicShare >= 1 {
		t.Fatalf("symbolic share = %v", r.SymbolicShare)
	}
	if len(r.CategoryShare[trace.Neural]) == 0 {
		t.Fatal("neural category share empty")
	}
	if len(r.Roofline) < 2 {
		t.Fatalf("roofline points = %d, want at least 2", len(r.Roofline))
	}
	if r.Dataflow.Events == 0 || r.Dataflow.Edges == 0 {
		t.Fatal("dataflow graph empty")
	}
	if len(r.Projections) != 3 {
		t.Fatalf("projections = %d, want 3 edge devices", len(r.Projections))
	}
	if r.Memory.TotalParams == 0 {
		t.Fatal("no parameters recorded")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	r := Analyze("empty", "x", trace.New(), Options{})
	if r.Total != 0 || len(r.Roofline) != 0 {
		t.Fatalf("empty analysis = %+v", r)
	}
}

// TestFig2cScaling runs the Fig. 2c rows on the host and logs their
// wall-clock 3x3/2x2 scale and symbolic shares: both move with host load
// (the scale read 1.008 once on a busy 2-vCPU host), so nothing here
// gates them. TestFig2cProjectedScaling and nvsa's
// TestProjectedSymbolicShare gate the same claims over deterministic
// quantities.
func TestFig2cScaling(t *testing.T) {
	rows, err := Fig2c(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].TaskSize != "2x2" || rows[1].TaskSize != "3x3" {
		t.Fatalf("rows = %+v", rows)
	}
	t.Logf("host 3x3/2x2 scale = %.3f (paper: 5.02), symbolic share 2x2 = %.3f, 3x3 = %.3f",
		rows[1].ScaleVs2x2, rows[0].SymbolicShare, rows[1].SymbolicShare)
}

func TestFig2bOrdering(t *testing.T) {
	rows, err := Fig2b(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byDev := map[string]map[string]Fig2bRow{}
	for _, r := range rows {
		if byDev[r.Workload] == nil {
			byDev[r.Workload] = map[string]Fig2bRow{}
		}
		byDev[r.Workload][r.Device] = r
	}
	for _, wl := range []string{"NVSA", "NLM"} {
		tx2 := byDev[wl][hwsim.JetsonTX2.Name]
		xavier := byDev[wl][hwsim.XavierNX.Name]
		rtx := byDev[wl][hwsim.RTX2080Ti.Name]
		if !(tx2.Total > xavier.Total && xavier.Total > rtx.Total) {
			t.Fatalf("%s device ordering violated: %v %v %v", wl, tx2.Total, xavier.Total, rtx.Total)
		}
		// The paper's ~20× TX2-vs-RTX gap for NVSA; require at least 5×.
		if wl == "NVSA" && rtx.Total*5 > tx2.Total {
			t.Fatalf("NVSA TX2/RTX ratio too small: %v vs %v", tx2.Total, rtx.Total)
		}
	}
}

func TestFig5SparsityShape(t *testing.T) {
	rows, err := Fig5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no sparsity rows")
	}
	attrs := map[string]bool{}
	stages := map[string]bool{}
	for _, r := range rows {
		attrs[r.Attribute] = true
		stages[r.Stage] = true
		if r.Stage == "pmf_to_vsa" && r.Sparsity < 0.8 {
			t.Fatalf("pmf_to_vsa %s sparsity = %v, want > 0.8 (paper: >95%%)", r.Attribute, r.Sparsity)
		}
	}
	for _, a := range []string{"number", "type", "size", "color"} {
		if !attrs[a] {
			t.Fatalf("attribute %s missing", a)
		}
	}
	if !stages["pmf_to_vsa"] || !stages["prob"] || !stages["execute"] {
		t.Fatalf("stages incomplete: %v", stages)
	}
}

func TestTab4Shape(t *testing.T) {
	rows, err := Tab4(hwsim.RTX2080Ti, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	gemm, vec := rows[0], rows[2]
	if gemm.Events == 0 || vec.Events == 0 {
		t.Fatal("kernel classes missing events")
	}
	// The Table-IV signature: neural GEMM high ALU / low DRAM, symbolic
	// eltwise low ALU / high DRAM.
	if gemm.ALUUtilPct < 30 || vec.ALUUtilPct > 15 {
		t.Fatalf("ALU shape wrong: gemm=%v vec=%v", gemm.ALUUtilPct, vec.ALUUtilPct)
	}
	if vec.DRAMBWUtilPct < 50 {
		t.Fatalf("symbolic DRAM utilization = %v, want high", vec.DRAMBWUtilPct)
	}
}

func TestRenderers(t *testing.T) {
	w, err := BuildWorkload("LNN")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reports := []*Report{r}
	var buf bytes.Buffer
	RenderFig2a(&buf, reports)
	RenderFig3a(&buf, reports)
	RenderFig3b(&buf, reports)
	RenderFig3c(&buf, reports, hwsim.RTX2080Ti)
	RenderFig4(&buf, reports)
	RenderTab1(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 2a", "Fig. 3a", "Fig. 3b", "Fig. 3c", "Fig. 4", "Tab. I", "LNN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KiB",
		1 << 21: "2.00MiB",
		1 << 31: "2.00GiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Fatalf("fmtBytes(%d) = %s, want %s", in, got, want)
		}
	}
}

func TestWorkloadRunIdempotentTraces(t *testing.T) {
	// Two runs of the same builder give two traces with consistent shapes.
	w1, _ := BuildWorkload("NLM")
	w2, _ := BuildWorkload("NLM")
	e1, e2 := ops.New(), ops.New()
	if err := w1.Run(e1); err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(e2); err != nil {
		t.Fatal(err)
	}
	if e1.Trace().Len() != e2.Trace().Len() {
		t.Fatalf("trace lengths differ: %d vs %d", e1.Trace().Len(), e2.Trace().Len())
	}
}

func TestReportWriteJSON(t *testing.T) {
	w, err := BuildWorkload("LTN")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	for _, key := range []string{"name", "symbolic_share", "category_share", "roofline", "dataflow", "memory"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON missing %q", key)
		}
	}
	if decoded["name"] != "LTN" {
		t.Fatalf("name = %v", decoded["name"])
	}
}

func TestMovementShareComputed(t *testing.T) {
	w, err := BuildWorkload("NVSA")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MovementShare <= 0 || r.MovementShare >= 1 {
		t.Fatalf("movement share = %v", r.MovementShare)
	}
	// NVSA's explicit transfers are dominated by the big H2D image batch
	// (the paper: >80%% of transfer traffic is host→device).
	if r.MovementH2DPct < 50 {
		t.Fatalf("H2D share of movement = %v, want majority", r.MovementH2DPct)
	}
}

// TestFig2cProjectedScaling is the deterministic sibling of
// TestFig2cScaling: the same 2×2 and 3×3 NVSA tasks projected onto the
// Jetson TX2 model, whose times depend only on the recorded shapes and
// costs, never on how busy the host was. 3×3 must still cost clearly more
// than 2×2.
func TestFig2cProjectedScaling(t *testing.T) {
	var total [2]float64
	for i, m := range []int{2, 3} {
		w := nvsa.New(nvsa.Config{M: m})
		tr, err := Execute(w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		total[i] = float64(hwsim.JetsonTX2.ProjectTrace(tr).Total)
	}
	scale := total[1] / total[0]
	t.Logf("TX2-projected 3x3/2x2 scale = %.3f", scale)
	if scale < 1.2 {
		t.Fatalf("TX2-projected 3x3/2x2 scale = %v (%v / %v), want > 1.2", scale, total[1], total[0])
	}
}

// TestFig3cBoundClass is Fig. 3c's claim over deterministic quantities:
// on the RTX 2080 Ti roofline, every registered workload's neural GEMM
// class sits in the compute-bound region and its symbolic element-wise
// class in the memory-bound region. Placement reads modelled FLOPs and
// the cache model's DRAM bytes, never wall-clock time.
func TestFig3cBoundClass(t *testing.T) {
	var gemm, eltwise int
	for _, name := range WorkloadNames() {
		w, err := BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Execute(w, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := Analyze(name, w.Category(), tr, Options{Device: hwsim.RTX2080Ti})
		for _, p := range r.Roofline {
			switch {
			case strings.HasSuffix(p.Name, "/neural/gemm"):
				gemm++
				if p.Bound != roofline.ComputeBound {
					t.Errorf("%s: AI %.3g is %v, want compute-bound", p.Name, p.AI, p.Bound)
				}
			case strings.HasSuffix(p.Name, "/symbolic/eltwise"):
				eltwise++
				if p.Bound != roofline.MemoryBound {
					t.Errorf("%s: AI %.3g is %v, want memory-bound", p.Name, p.AI, p.Bound)
				}
			}
		}
	}
	if gemm == 0 || eltwise == 0 {
		t.Fatalf("suite placed %d neural GEMM and %d symbolic element-wise points, want both", gemm, eltwise)
	}
	t.Logf("%d neural GEMM points compute-bound, %d symbolic element-wise points memory-bound", gemm, eltwise)
}

// TestNVSAGoldenReport pins the deterministic part of the default NVSA
// report — dataflow structure, memory and per-stage costs — so an
// execution change (such as batching the codebook cleanup queries) must
// leave the characterization exactly as it was.
func TestNVSAGoldenReport(t *testing.T) {
	w, err := BuildWorkload("NVSA")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	CloseWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	df := r.Dataflow
	gotDF := [6]int{df.Events, df.Edges, df.Depth, df.MaxWidth, df.NeuralToSymbolic, df.SymbolicToNeural}
	if want := [6]int{1278, 1720, 43, 322, 1, 0}; gotDF != want {
		t.Errorf("dataflow events/edges/depth/width/n2s/s2n = %v, want %v", gotDF, want)
	}
	wantMem := MemoryReport{
		NeuralAlloc:    6527616,
		SymbolicAlloc:  7605264,
		ParamsByKind:   map[string]int64{"codebook": 44728320, "weight": 307328},
		TotalParams:    45035648,
		PeakNeuralOp:   1572864,
		PeakSymbolicOp: 44263984,
	}
	if !reflect.DeepEqual(r.Memory, wantMem) {
		t.Errorf("memory = %+v, want %+v", r.Memory, wantMem)
	}
	type stage struct {
		name         string
		flops, bytes int64
		events       int
	}
	want := []stage{
		{"pmf_to_vsa:number", 72, 864, 8},
		{"codebook_encode:number", 1376256, 3146304, 32},
		{"prob:number", 378406496, 711661156, 249},
		{"execute:number", 774225, 115264, 10},
		{"pmf_to_vsa:type", 360, 12960, 24},
		{"codebook_encode:type", 13041664, 2883904, 48},
		{"prob:type", 283804026, 533728652, 197},
		{"execute:type", 774189, 115008, 10},
		{"pmf_to_vsa:size", 432, 15552, 24},
		{"codebook_encode:size", 13172736, 3146112, 48},
		{"prob:size", 283804096, 533729532, 197},
		{"execute:size", 774168, 114808, 5},
		{"pmf_to_vsa:color", 720, 25920, 24},
		{"codebook_encode:color", 13697024, 4194944, 48},
		{"prob:color", 283804376, 533733052, 197},
		{"execute:color", 774184, 114888, 5},
		{"scene_inference", 354240000, 708569344, 32},
		{"vsa_to_pmf", 177120520, 354287968, 81},
	}
	var got []stage
	for _, s := range r.Stages {
		got = append(got, stage{s.Stage, s.FLOPs, s.Bytes, s.Events})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stages =\n%v\nwant\n%v", got, want)
	}
}

// TestPrAEGoldenReport pins the deterministic part of the default PrAE
// report in the style of TestNVSAGoldenReport: dataflow structure, memory,
// and per-stage costs and measured sparsity. Joint-scene expansion is
// PrAE's hot path; how it executes (index vectors or not, fresh or pooled
// buffers) must leave the characterization exactly as it was.
func TestPrAEGoldenReport(t *testing.T) {
	w, err := BuildWorkload("PrAE")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Characterize(w, Options{})
	CloseWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	df := r.Dataflow
	gotDF := [6]int{df.Events, df.Edges, df.Depth, df.MaxWidth, df.NeuralToSymbolic, df.SymbolicToNeural}
	if want := [6]int{879, 1145, 27, 274, 1, 0}; gotDF != want {
		t.Errorf("dataflow events/edges/depth/width/n2s/s2n = %v, want %v", gotDF, want)
	}
	wantMem := MemoryReport{
		NeuralAlloc:    3494912,
		SymbolicAlloc:  61305040,
		ParamsByKind:   map[string]int64{"weight": 9536},
		TotalParams:    9536,
		PeakNeuralOp:   1572864,
		PeakSymbolicOp: 1843200,
	}
	if !reflect.DeepEqual(r.Memory, wantMem) {
		t.Errorf("memory = %+v, want %+v", r.Memory, wantMem)
	}
	type stage struct {
		name         string
		flops, bytes int64
		events       int
		sparsity     float64
	}
	want := []stage{
		{"scene_inference", 10117120, 118456320, 160, 0.9723763769157088},
		{"abduce:number", 1632, 29540, 153, 0.9412022817025011},
		{"execute:number", 0, 188, 2, 0.8947368421052632},
		{"abduce:type", 378, 4940, 125, 0.9031339031339032},
		{"execute:type", 0, 108, 2, 0.8181818181818182},
		{"abduce:size", 448, 5820, 125, 0.9234449760765551},
		{"execute:size", 54, 384, 7, 0.6190476190476191},
		{"abduce:color", 728, 9340, 125, 0.9475218658892128},
		{"execute:color", 90, 640, 7, 0.6571428571428571},
		{"select", 4001800, 70321376, 154, 0.9641324626865672},
	}
	var got []stage
	for _, s := range r.Stages {
		got = append(got, stage{s.Stage, s.FLOPs, s.Bytes, s.Events, s.Sparsity})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stages =\n%v\nwant\n%v", got, want)
	}
}
