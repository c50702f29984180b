package metrics

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exact exposition of a small registry:
// ordering, HELP/TYPE lines, label quoting, and the histogram expansion.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "things counted").Add(3)
	g := r.GaugeVec("b_depth", "a queue", "q")
	g.With("main").Set(2)
	h := r.Histogram("c_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP a_total things counted",
		"# TYPE a_total counter",
		"a_total 3",
		"# HELP b_depth a queue",
		"# TYPE b_depth gauge",
		`b_depth{q="main"} 2`,
		"# HELP c_seconds latency",
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="0.5"} 1`,
		`c_seconds_bucket{le="1"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_sum 10",
		"c_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePromEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line1\nline2 \\ backslash", "path").With(`a"b\c` + "\n").Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2 \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

// promLine matches the exposition grammar loosely enough to lint every
// non-comment line a scraper would parse.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

func lintProm(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
	}
}

func TestWritePromLintsUnderLoad(t *testing.T) {
	r := NewRegistry()
	NewGoCollector(r)
	hv := r.HistogramVec("op_seconds", "per-op", OpBuckets(), "category", "phase")
	hv.With("MatMul", "neural").Observe(3e-5)
	hv.With("other", "symbolic").Observe(2)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	lintProm(t, buf.String())
}

// TestHistogramCumulativeInvariant checks le="+Inf" == _count on the same
// scrape, the invariant Prometheus clients validate.
func TestHistogramCumulativeInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", "", []float64{1e-3, 1e-2})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	var inf, count string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `inv_seconds_bucket{le="+Inf"} `) {
			inf = strings.TrimPrefix(line, `inv_seconds_bucket{le="+Inf"} `)
		}
		if strings.HasPrefix(line, "inv_seconds_count ") {
			count = strings.TrimPrefix(line, "inv_seconds_count ")
		}
	}
	if inf == "" || inf != count {
		t.Fatalf("le=+Inf (%s) != _count (%s)", inf, count)
	}
	if n, _ := strconv.Atoi(count); n != 100 {
		t.Fatalf("count = %s, want 100", count)
	}
}
