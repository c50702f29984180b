package frontdoor

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/neurosym/nsbench/internal/metrics"
)

// wellFormed is the accepted X-Request-ID language, written independently
// of validID so the fuzz target checks one against the other.
var wellFormed = regexp.MustCompile(`^[A-Za-z0-9.:-][A-Za-z0-9._:-]{0,127}$`)

// FuzzRequestID: whatever a client sends as X-Request-ID, the ID the
// handler sees is non-empty, never claims a reserved "_" ID, equals the
// inbound one whenever that is well formed (else is minted under the
// tier's prefix), and is the one echoed on the response.
func FuzzRequestID(f *testing.F) {
	for _, seed := range []string{
		"bench-101-true-5", "bench-7-false-0", // e2ebench loadgen
		"chaos-1-c0-16",                       // chaos harness
		"smoke-059",                           // trace smoke
		"caller-7", "trace-me-42", "flight-1", // tests
		"nsr-0a1b2c3d-12", "ns-static-1", // minted IDs forwarded between tiers
		"_health", "_membership", // reserved router IDs
		"",
		strings.Repeat("a", maxIDLen),
		strings.Repeat("a", maxIDLen+1),
		"idé", "id with space", "id/slash", "line\nbreak",
	} {
		f.Add(seed)
	}
	d := New(metrics.NewRegistry(), nil, Tier{
		MetricPrefix: "fuzz", IDPrefix: "fz", LogMessage: "request",
		LatencyThreshold: time.Second, Ready: func() bool { return true },
	})
	f.Cleanup(d.Close)
	var seen string
	mux := d.Mux()
	d.Handle(mux, "/v1/echo", func(w http.ResponseWriter, r *http.Request) { seen = RequestID(r) })
	f.Fuzz(func(t *testing.T, in string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/echo", nil)
		req.Header.Set("X-Request-ID", in)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch {
		case seen == "":
			t.Fatalf("inbound %q: empty request ID", in)
		case seen[0] == '_':
			t.Fatalf("inbound %q: request ID %q claims a reserved ID", in, seen)
		case wellFormed.MatchString(in) && seen != in:
			t.Fatalf("well-formed inbound %q replaced by %q", in, seen)
		case !wellFormed.MatchString(in) && !strings.HasPrefix(seen, "fz-"):
			t.Fatalf("malformed inbound %q: got %q, want a minted fz- ID", in, seen)
		case rec.Header().Get("X-Request-ID") != seen:
			t.Fatalf("response echoes %q, handler saw %q", rec.Header().Get("X-Request-ID"), seen)
		}
	})
}
