package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/neurosym/nsbench/internal/slo"
)

func TestSLOEndpointReportsObjectives(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := get(h, "/v1/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var rep slo.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, o := range rep.Objectives {
		names[o.Name] = true
		if len(o.Windows) == 0 {
			t.Fatalf("objective %s has no burn windows", o.Name)
		}
	}
	if !names["availability"] || !names["characterize_latency"] {
		t.Fatalf("objectives = %v, want availability and characterize_latency", names)
	}
}

func TestSLOEndpointSeesErrorBurst(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Clean traffic first: the availability feed counts every served
	// response (probe endpoints excluded, so use a real one).
	for i := 0; i < 5; i++ {
		get(h, "/v1/workloads")
	}
	// Inject a 5xx burst directly into the availability feed (the
	// front door's "total without good" path).
	_, total := s.door.SLOFeed()
	for i := 0; i < 5; i++ {
		total.Inc()
	}

	rec := get(h, "/v1/slo")
	var rep slo.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	var avail *slo.ObjectiveReport
	for i := range rep.Objectives {
		if rep.Objectives[i].Name == "availability" {
			avail = &rep.Objectives[i]
		}
	}
	if avail == nil {
		t.Fatal("no availability objective in report")
	}
	if avail.Total == 0 || avail.Good >= avail.Total {
		t.Fatalf("good/total = %d/%d, want an error gap", avail.Good, avail.Total)
	}
	if avail.ErrorRate <= 0 {
		t.Fatalf("error rate = %v, want > 0 after burst", avail.ErrorRate)
	}
	if avail.BudgetConsumed <= 0 {
		t.Fatalf("budget consumed = %v, want > 0 after burst", avail.BudgetConsumed)
	}
	// The burst is a large fraction of a small sample against the 0.1%
	// budget: every window must be burning.
	for _, w := range avail.Windows {
		if w.BurnRate <= 1 {
			t.Fatalf("window %s burn = %v, want > 1", w.Name, w.BurnRate)
		}
	}
}

// TestProbeEndpointsDoNotBurnErrorBudget: a draining replica's /readyz
// answers 503 by design — the readiness contract must not consume the
// availability budget it exists to protect.
func TestProbeEndpointsDoNotBurnErrorBudget(t *testing.T) {
	resetCtl(false)
	s := newTestServer(t, Config{})
	h := s.Handler()
	s.BeginDrain()
	for i := 0; i < 10; i++ {
		if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining readyz = %d, want 503", rec.Code)
		}
		get(h, "/healthz")
	}

	rec := get(h, "/v1/slo")
	var rep slo.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Objectives {
		if o.Name != "availability" {
			continue
		}
		if o.Good != o.Total {
			t.Fatalf("good/total = %d/%d after probe-only traffic, want equal (probes must not feed the budget)", o.Good, o.Total)
		}
		if o.BudgetConsumed != 0 {
			t.Fatalf("budget consumed = %v by readiness 503s, want 0", o.BudgetConsumed)
		}
		return
	}
	t.Fatal("no availability objective in report")
}

func TestStatsJSONUnchangedBySLOPlane(t *testing.T) {
	// The SLO plane must not disturb the pinned /v1/stats JSON shape:
	// its state lives only under /v1/slo and ns_slo_* metrics.
	resetCtl(false)
	s := newTestServer(t, Config{})
	rec := get(s.Handler(), "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"slo", "objectives", "budget_consumed"} {
		if _, ok := m[forbidden]; ok {
			t.Fatalf("/v1/stats grew an SLO key %q", forbidden)
		}
	}
}
