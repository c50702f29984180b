package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/neurosym/nsbench/internal/core"
	"github.com/neurosym/nsbench/internal/hwsim"
	"github.com/neurosym/nsbench/internal/ops"
)

// detReport is the deterministic subset of a characterization report —
// the fields internal/chaos fingerprints: everything except measured
// wall-clock time. A served report must match the in-process reference
// on every one of them.
type detReport struct {
	Name     string          `json:"name"`
	Category string          `json:"category"`
	Memory   json.RawMessage `json:"memory"`
	Roofline []struct {
		Name string  `json:"name"`
		AI   float64 `json:"arithmetic_intensity"`
	} `json:"roofline"`
	Dataflow struct {
		Events           int `json:"events"`
		Edges            int `json:"edges"`
		Depth            int `json:"depth"`
		MaxWidth         int `json:"max_width"`
		NeuralToSymbolic int `json:"neural_to_symbolic_edges"`
		SymbolicToNeural int `json:"symbolic_to_neural_edges"`
	} `json:"dataflow"`
}

// served is a response body decoded once for both the output check and
// the engine-layer attribution.
type served struct {
	detReport
	NeuralNs      int64                         `json:"neural_ns"`
	SymbolicNs    int64                         `json:"symbolic_ns"`
	CategoryShare map[string]map[string]float64 `json:"category_share"`
	Mem           struct {
		NeuralAlloc   int64
		SymbolicAlloc int64
	} `json:"-"`
}

func decodeServed(body []byte) (*served, error) {
	var s served
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(s.Memory, &s.Mem); err != nil {
		return nil, fmt.Errorf("memory: %w", err)
	}
	return &s, nil
}

func fingerprint(d *detReport) string {
	b, err := json.Marshal(d)
	if err != nil {
		// detReport holds only plain values; Marshal cannot fail on it.
		panic(err)
	}
	return string(b)
}

// references characterizes every key in process and returns each key's
// fingerprint. A class runs once: core.Characterize on the first device,
// then core.Analyze of the same trace for the others — the analysis step
// Characterize itself ends with.
func references(keys []key, pool *ops.Pool) ([]string, error) {
	fps := make([]string, len(keys))
	var last *core.Report
	for i, k := range keys {
		dev, err := hwsim.DeviceByName(k.Device)
		if err != nil {
			return nil, err
		}
		var rep *core.Report
		if last != nil && last.Name == k.Workload {
			rep = core.Analyze(last.Name, last.Category, last.Trace, core.Options{Device: dev})
		} else {
			wl, err := core.BuildWorkload(k.Workload)
			if err != nil {
				return nil, err
			}
			rep, err = core.Characterize(wl, core.Options{Device: dev, Pool: pool})
			core.CloseWorkload(wl)
			if err != nil {
				return nil, err
			}
			last = rep
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		s, err := decodeServed(b)
		if err != nil {
			return nil, err
		}
		fps[i] = fingerprint(&s.detReport)
	}
	return fps, nil
}

// verifier checks response bodies against the references. A cache hit is
// byte-identical to the report that filled the cache, so a body equal to
// one already checked for the same key passes without being decoded
// again. One verifier per load-generator connection: it is not shared.
type verifier struct {
	refs []string
	seen [][]byte
}

func newVerifier(refs []string) *verifier {
	return &verifier{refs: refs, seen: make([][]byte, len(refs))}
}

// check returns the decoded body (nil when the byte-equality fast path
// applied to a cache hit) or an error describing the mismatch.
func (v *verifier) check(k int, body []byte, hit bool) (*served, error) {
	if hit && v.seen[k] != nil && bytes.Equal(v.seen[k], body) {
		return nil, nil
	}
	s, err := decodeServed(body)
	if err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	if fp := fingerprint(&s.detReport); fp != v.refs[k] {
		return nil, fmt.Errorf("report differs from reference: got %.200s want %.200s", fp, v.refs[k])
	}
	v.seen[k] = append(v.seen[k][:0], body...)
	return s, nil
}
