package cluster

import (
	"encoding/json"
	"io"
	"net/http"

	"github.com/neurosym/nsbench/internal/frontdoor"
	"github.com/neurosym/nsbench/internal/membership"
)

// Dynamic membership endpoints. A replica POSTs /v1/cluster/join on
// startup and keeps POSTing it as its heartbeat; /v1/cluster/leave
// withdraws it on drain. /v1/cluster/members is the operator's view of
// the table. All three answer 403 when Config.Membership.Enabled is off —
// a statically configured cluster must not be mutable over HTTP.

// joinResponse answers a join/heartbeat or leave POST.
type joinResponse struct {
	Node string `json:"node"`
	// Changed reports whether this call changed membership (a first join
	// or an effective leave) as opposed to refreshing a heartbeat or
	// removing an unknown node.
	Changed bool `json:"changed"`
	Members int  `json:"members"`
}

// memberView is one row of the GET /v1/cluster/members listing.
type memberView struct {
	Node   string `json:"node"`
	Static bool   `json:"static"`
	// State is "live" (in the ring) or "probation" (known, but not yet —
	// or no longer — passing readiness probes).
	State string `json:"state"`
	// Inflight is the router's concurrent upstream attempts to this node.
	Inflight int64 `json:"inflight"`
	// MeanAttemptSeconds is the observed mean successful-attempt latency;
	// 0 until traffic lands.
	MeanAttemptSeconds float64 `json:"mean_attempt_seconds"`
}

// membersResponse is the GET /v1/cluster/members payload.
type membersResponse struct {
	Enabled  bool                   `json:"enabled"`
	Members  []memberView           `json:"members"`
	Departed []membership.Departure `json:"departed"`
	Joins    uint64                 `json:"joins_total"`
	Leaves   uint64                 `json:"leaves_total"`
}

// decodeAnnouncement parses and canonicalizes one join/leave body.
func decodeAnnouncement(w http.ResponseWriter, r *http.Request) (string, bool) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return "", false
	}
	var ann membership.Announcement
	if err := json.Unmarshal(raw, &ann); err != nil {
		http.Error(w, "bad announcement: "+err.Error(), http.StatusBadRequest)
		return "", false
	}
	node, err := membership.NormalizeNode(ann.URL)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", false
	}
	return node, true
}

// membershipEnabled gates the cluster endpoints on Config.Membership.
func (rt *Router) membershipEnabled(w http.ResponseWriter) bool {
	if !rt.cfg.Membership.Enabled {
		http.Error(w, "dynamic membership disabled (static -replicas cluster)", http.StatusForbidden)
		return false
	}
	return true
}

// handleClusterJoin registers a replica or refreshes its heartbeat.
func (rt *Router) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	if !rt.membershipEnabled(w) {
		return
	}
	node, ok := decodeAnnouncement(w, r)
	if !ok {
		return
	}
	added := rt.member.Join(node)
	writeClusterJSON(w, joinResponse{Node: node, Changed: added, Members: rt.member.Len()})
}

// handleClusterLeave withdraws a replica immediately (graceful drain).
func (rt *Router) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodPost) {
		return
	}
	if !rt.membershipEnabled(w) {
		return
	}
	node, ok := decodeAnnouncement(w, r)
	if !ok {
		return
	}
	removed := rt.member.Leave(node, membership.ReasonLeave)
	writeClusterJSON(w, joinResponse{Node: node, Changed: removed, Members: rt.member.Len()})
}

// handleClusterMembers lists the membership table with each node's
// routing state and load signals, plus the recent-departure ledger.
func (rt *Router) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	if !frontdoor.AllowMethods(w, r, http.MethodGet) {
		return
	}
	joins, leaves := rt.member.Counts()
	out := membersResponse{
		Enabled:  rt.cfg.Membership.Enabled,
		Members:  []memberView{},
		Departed: rt.member.Departed(),
		Joins:    joins,
		Leaves:   leaves,
	}
	if out.Departed == nil {
		out.Departed = []membership.Departure{}
	}
	for _, m := range rt.member.Members() {
		mv := memberView{Node: m.Node, Static: m.Static, State: "probation"}
		if rt.ring.Contains(m.Node) {
			mv.State = "live"
		}
		mv.Inflight = rt.inflightCounter(m.Node).Load()
		if h := rt.nodeLat.With(m.Node); h.Count() > 0 {
			mv.MeanAttemptSeconds = h.Sum() / float64(h.Count())
		}
		out.Members = append(out.Members, mv)
	}
	writeClusterJSON(w, out)
}

// writeClusterJSON marshals v as the response body.
func writeClusterJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
