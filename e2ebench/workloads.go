package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"github.com/neurosym/nsbench/internal/hwsim"
)

// workload is one named traffic mix, driven in a closed loop. The reasons
// each exists, and the steadiness rules their parameters follow, are in
// the package doc.
type workload struct {
	name string
	// clients is how many closed-loop clients send requests, each on its
	// own connection.
	clients int
	// classes are registry workload names; every class is requested on
	// every device in hwsim.AllDevices, so a key is one class×device pair.
	classes []string
	// cacheSize is the replicas' report-cache setting (0 = default 128,
	// negative disables the cache).
	cacheSize int
	// zipfS > 0 draws keys from a Zipf popularity law with this exponent
	// instead of uniformly.
	zipfS float64
	// maxRPS is the request rate the schedule is sized for; a faster run
	// starts the schedule over.
	maxRPS float64
	// sloMs is the latency limit slo_ok_ratio counts against.
	sloMs float64
	// traceEvery samples one request in traceEvery for a stitched-trace
	// fetch in the traced run (1 traces every request).
	traceEvery int
}

// hitClasses are the workloads that take under 200 ms per cache miss:
// every registered workload except NVSA, PrAE and VSAIT.
var hitClasses = []string{"LNN", "LTN", "NLM", "ZeroC", "NeuralBaseline", "AlphaGo", "GNN+attention", "NSVQA"}

// ycsbZipfS is YCSB's default Zipfian constant (Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010), the
// popularity skew most key-value serving benchmarks inherit.
const ycsbZipfS = 0.99

var workloads = []*workload{
	{name: "hit-zipf", clients: 2, classes: hitClasses, zipfS: ycsbZipfS, maxRPS: 1000, sloMs: 50, traceEvery: 20},
	{name: "symbolic-closed", clients: 1, classes: []string{"NVSA", "PrAE", "VSAIT"}, cacheSize: -1, maxRPS: 20, sloMs: 5000, traceEvery: 1},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// key is one class×device request.
type key struct {
	Workload string
	Device   string
}

func (w *workload) keys() []key {
	var ks []key
	for _, c := range w.classes {
		for _, d := range hwsim.AllDevices() {
			ks = append(ks, key{c, d.Name})
		}
	}
	return ks
}

// arrival is one scheduled request: which key it asks for, and whether
// the traced run fetches its stitched trace.
type arrival struct {
	Key   int32
	Trace bool
}

// block returns the key indices one pass of the mix holds. Uniform mixes
// hold every key once. A Zipf mix holds each key in proportion to
// 1/rank^s, over zipfBlock slots (at least one each); popularity rank is
// the order of the keys' FNV-1a hashes, as YCSB's scrambled Zipfian
// generator decouples rank from key order, so neither the class list nor
// the seed decides which key is hot.
func (w *workload) block() []int32 {
	ks := w.keys()
	if w.zipfS <= 0 {
		b := make([]int32, len(ks))
		for i := range b {
			b[i] = int32(i)
		}
		return b
	}
	const zipfBlock = 1000
	byRank := make([]int, len(ks))
	hashes := make([]uint64, len(ks))
	for i, k := range ks {
		byRank[i] = i
		h := fnv.New64a()
		h.Write([]byte(k.Workload + "|" + k.Device))
		hashes[i] = h.Sum64()
	}
	sort.Slice(byRank, func(a, b int) bool { return hashes[byRank[a]] < hashes[byRank[b]] })
	var norm float64
	for r := range byRank {
		norm += math.Pow(float64(r+1), -w.zipfS)
	}
	var b []int32
	for r, k := range byRank {
		n := max(1, int(math.Round(zipfBlock*math.Pow(float64(r+1), -w.zipfS)/norm)))
		for j := 0; j < n; j++ {
			b = append(b, int32(k))
		}
	}
	return b
}

// schedule fixes the whole request sequence from the seed before the run
// starts: seeded permutations of the mix's block, one after another, and
// a seeded trace sample. Every block holds the same keys in the same
// proportions, so every seed offers the same key mix and any prefix of
// the schedule is within one block of it; seeds differ only in order.
// The schedule holds enough requests for maxRPS over the window.
func (w *workload) schedule(seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	block := w.block()
	blocks := int(math.Ceil(seconds * w.maxRPS / float64(len(block))))
	n := max(1, blocks) * len(block)
	out := make([]arrival, n)
	for i := 0; i < n; i += len(block) {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for j, k := range block {
			out[i+j].Key = k
		}
	}
	for i := range out {
		out[i].Trace = rng.Intn(w.traceEvery) == 0
	}
	return out
}
