package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"sync"

	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Stitched cross-process traces. Every request carries one X-Request-ID
// across its hops: the router mints (or accepts) it, records its own
// routing spans under it, and forwards it to each replica it tries, where
// the serving layers and the engine record theirs. This file is the
// collection side: fan the ID out to every configured replica, pull back
// each process's RequestTrace slice, and merge the slices into a single
// Chrome trace with one pid per process (trace.WriteStitchedChrome).
//
// The fan-out deliberately queries all known members, not just the
// ring-live ones: the request being investigated may have touched a
// replica that has since been ejected, and an ejected-but-reachable node
// can still answer for its flight recorder. (A member that left outright
// is gone — its recorder went with its process.)

// collectRequestTraces gathers every process's slice of the request's
// timeline: the router's own recorder first (pid 1 in the stitched view),
// then each cluster member in sorted order. Replicas that fail to answer,
// or hold nothing under the ID, contribute no slice.
func (rt *Router) collectRequestTraces(r *http.Request, id string) []trace.RequestTrace {
	nodes := rt.member.Nodes()
	replies := make([]trace.RequestTrace, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			path := "/v1/trace?request_id=" + url.QueryEscape(id)
			up, err := rt.attempt(r.Context(), node, http.MethodGet, path, nil, frontdoor.RequestID(r), 0)
			if err != nil || up.code != http.StatusOK {
				return
			}
			var slice trace.RequestTrace
			if err := json.Unmarshal(up.body, &slice); err != nil {
				return
			}
			replies[i] = slice
		}(i, node)
	}
	wg.Wait()

	var procs []trace.RequestTrace
	if rt.recorder != nil {
		if own := rt.recorder.RequestTrace(id, rt.cfg.NodeName); !own.Empty() {
			procs = append(procs, own)
		}
	}
	for i := range replies {
		if !replies[i].Empty() {
			procs = append(procs, replies[i])
		}
	}
	return procs
}

// handleStitchedTrace serves GET /v1/trace?request_id=<id>: the merged
// cross-process timeline of one past request, as a Perfetto-loadable
// Chrome trace (format=chrome, default) or as the raw per-process slices
// (format=json). 404 when no process holds anything under the ID — the
// flight recorders are rings, so old requests age out.
func (rt *Router) handleStitchedTrace(w http.ResponseWriter, r *http.Request, id string) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	if format != "chrome" && format != "json" {
		http.Error(w, "unknown format \""+format+"\" (want chrome or json)", http.StatusBadRequest)
		return
	}
	procs := rt.collectRequestTraces(r, id)
	if len(procs) == 0 {
		http.Error(w, "no recorded spans for request_id "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if format == "json" {
		b, err := json.Marshal(procs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(b)
		return
	}
	// Stitch into a buffer: a slice the writer rejects must become an
	// error status, not an empty 200.
	var buf bytes.Buffer
	if err := trace.WriteStitchedChrome(&buf, procs); err != nil {
		if rt.logger != nil {
			rt.logger.Error("stitched trace write failed", "id", id, "err", err)
		}
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Write(buf.Bytes())
}
