package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"

	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/serve"
)

// NodeStats is one replica's /v1/stats snapshot as seen by the router,
// or the error that stood in for it.
type NodeStats struct {
	Node  string         `json:"node"`
	Stats serve.Snapshot `json:"stats,omitempty"`
	Err   string         `json:"error,omitempty"`
}

// ClusterStats is the aggregated GET /v1/stats payload: the counter sums
// across every live replica (serve.Snapshot.Add) plus the per-node
// detail the sums hide.
type ClusterStats struct {
	LiveNodes    int      `json:"live_nodes"`
	EjectedNodes []string `json:"ejected_nodes"`
	// DepartedNodes are replicas that left the cluster during the fan-out
	// itself: they were live when the probe started and gone (membership
	// leave or TTL expiry) by the time their answer was due. Expected
	// churn, not an error.
	DepartedNodes []string       `json:"departed_nodes"`
	Cluster       serve.Snapshot `json:"cluster"`
	Nodes         []NodeStats    `json:"nodes"`
}

// aggregate fans one stats probe out to every live replica concurrently
// and sums the snapshots. Replicas that fail to answer appear with an
// error string and contribute nothing to the sums — unless they stopped
// being cluster members mid-fan-out, in which case the failure is just
// the departure observed from the wrong side and they are reported under
// departed_nodes instead.
func (rt *Router) aggregate(r *http.Request) ClusterStats {
	nodes := rt.ring.Nodes()
	out := ClusterStats{
		LiveNodes:     len(nodes),
		EjectedNodes:  rt.health.Ejected(),
		DepartedNodes: []string{},
		Nodes:         make([]NodeStats, len(nodes)),
	}
	if out.EjectedNodes == nil {
		out.EjectedNodes = []string{}
	}
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			ns := NodeStats{Node: node}
			up, err := rt.attempt(r.Context(), node, http.MethodGet, "/v1/stats", nil, frontdoor.RequestID(r), 0)
			switch {
			case err != nil:
				ns.Err = err.Error()
			case up.code != http.StatusOK:
				ns.Err = "status " + http.StatusText(up.code)
			default:
				if snap, err := decodeSnapshot(up.body); err != nil {
					ns.Err = "bad stats payload: " + err.Error()
				} else {
					ns.Stats = snap
				}
			}
			out.Nodes[i] = ns
		}(i, node)
	}
	wg.Wait()
	// Reclassify errored rows whose node left the cluster while the
	// fan-out was in flight: membership is re-checked after the probes so
	// a leave that raced the probe is seen either way.
	kept := out.Nodes[:0]
	for _, ns := range out.Nodes {
		if ns.Err != "" && !rt.member.Contains(ns.Node) {
			out.DepartedNodes = append(out.DepartedNodes, ns.Node)
			continue
		}
		kept = append(kept, ns)
	}
	out.Nodes = kept
	sort.Strings(out.DepartedNodes)
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	for _, ns := range out.Nodes {
		if ns.Err == "" {
			out.Cluster.Add(ns.Stats)
		}
	}
	return out
}

// decodeSnapshot parses one replica's /v1/stats body. Every field counts
// or averages something, so a negative value marks a corrupt payload and
// is refused like one that does not parse.
func decodeSnapshot(b []byte) (serve.Snapshot, error) {
	var s serve.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return serve.Snapshot{}, err
	}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); (f.CanInt() && f.Int() < 0) || (f.CanFloat() && f.Float() < 0) {
			return serve.Snapshot{}, fmt.Errorf("negative %s", v.Type().Field(i).Tag.Get("json"))
		}
	}
	return s, nil
}

// handleStats serves the aggregated cluster counters.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	b, err := json.Marshal(rt.aggregate(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
