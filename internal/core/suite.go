package core

import (
	"github.com/neurosym/nsbench/internal/workloads/alphago"
	"github.com/neurosym/nsbench/internal/workloads/gnnattn"
	"github.com/neurosym/nsbench/internal/workloads/lnn"
	"github.com/neurosym/nsbench/internal/workloads/ltn"
	"github.com/neurosym/nsbench/internal/workloads/neural"
	"github.com/neurosym/nsbench/internal/workloads/nlm"
	"github.com/neurosym/nsbench/internal/workloads/nsvqa"
	"github.com/neurosym/nsbench/internal/workloads/nvsa"
	"github.com/neurosym/nsbench/internal/workloads/prae"
	"github.com/neurosym/nsbench/internal/workloads/vsait"
	"github.com/neurosym/nsbench/internal/workloads/zeroc"
)

// SuiteNames lists the seven characterized workloads in the paper's order.
func SuiteNames() []string {
	return []string{"LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"}
}

// init registers the default-configuration builders for the suite plus the
// neural baseline. Default configurations are the calibrated ones whose
// phase splits reproduce Fig. 2a.
func init() {
	RegisterWorkload("LNN", lnn.Category, func() Workload { return lnn.New(lnn.Config{}) })
	RegisterWorkload("LTN", ltn.Category, func() Workload { return ltn.New(ltn.Config{}) })
	RegisterWorkload("NVSA", nvsa.Category, func() Workload { return nvsa.New(nvsa.Config{}) })
	RegisterWorkload("NLM", nlm.Category, func() Workload { return nlm.New(nlm.Config{}) })
	RegisterWorkload("VSAIT", vsait.Category, func() Workload { return vsait.New(vsait.Config{}) })
	RegisterWorkload("ZeroC", zeroc.Category, func() Workload { return zeroc.New(zeroc.Config{}) })
	RegisterWorkload("PrAE", prae.Category, func() Workload { return prae.New(prae.Config{}) })
	RegisterWorkload("NeuralBaseline", neural.Category, func() Workload { return neural.New(neural.Config{}) })
	// Extra Table-I workloads beyond the characterized seven, so every one
	// of the five integration paradigms is executable (Symbolic[Neuro] and
	// the non-vector Neuro|Symbolic pipeline are otherwise unrepresented).
	RegisterWorkload("AlphaGo", alphago.Category, func() Workload { return alphago.New(alphago.Config{}) })
	RegisterWorkload("GNN+attention", gnnattn.Category, func() Workload { return gnnattn.New(gnnattn.Config{}) })
	RegisterWorkload("NSVQA", nsvqa.Category, func() Workload { return nsvqa.New(nsvqa.Config{}) })
}
