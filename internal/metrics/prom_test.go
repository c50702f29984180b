package metrics

import (
	"bytes"
	"fmt"
	"math"
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

// FuzzWriteProm round-trips fuzzed help text and label values through the
// exposition format: a small scraper-side parser must recover every help
// text, label value and sample value WriteProm was given, exactly. The
// gauge gets a second label tuple (w1, w2), which must be its own series
// unless it equals (v1, v2), and the histogram's buckets must count the
// observation exactly where obs <= le holds (a NaN only in +Inf). The
// seeds cover the escaped bytes (backslash, newline, double quote),
// non-UTF-8 bytes, the special float values, and two tuples whose values
// joined by a separator byte would coincide.
func FuzzWriteProm(f *testing.F) {
	f.Add("plain help", "a", "b", "a", "b", 1.5, uint64(3), 0.25)
	f.Add("", "", "", "x", "", 0.0, uint64(0), 0.0)
	f.Add(`back\slash`, `a\b`, `\`, `a`, `b\`, math.Inf(1), uint64(math.MaxUint64), math.Inf(-1))
	f.Add("two\nlines\n", "x\ny", "\n", "x", "y\n\n", math.Inf(-1), uint64(1), math.Inf(1))
	f.Add(`say "hi"`, `"quoted"`, `a"b,c="d"}`, `"quoted"`, `a"b`, math.NaN(), uint64(7), math.NaN())
	f.Add("bad \xff\xfe utf8", "\xc3\x28", "\x80", "\xc3", "\x28\x80", math.Copysign(0, -1), uint64(42), math.Copysign(0, -1))
	f.Add(`\n is not a newline`, `\"`, `\\n`, `\`, `"\\n`, 1e308, uint64(1<<63), -1e-308)
	f.Add("separator", "a\xff", "b", "a", "\xffb", 2.0, uint64(5), 0.75)
	f.Fuzz(func(t *testing.T, help, v1, v2, w1, w2 string, gauge float64, count uint64, obs float64) {
		r := NewRegistry()
		gv := r.GaugeVec("fz_gauge", help, "a", "b")
		gv.With(v1, v2).Set(gauge)
		gv.With(w1, w2).Add(1)
		r.CounterVec("fz_total", help, "a").With(v1).Add(count)
		bounds := []float64{0.5, 1}
		h := r.HistogramVec("fz_seconds", help, bounds, "b").With(v2)
		h.Observe(obs)
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		helps, samples, err := parseProm(buf.String())
		if err != nil {
			t.Fatalf("%v in:\n%s", err, buf.String())
		}

		for _, fam := range []string{"fz_gauge", "fz_total", "fz_seconds"} {
			got, ok := helps[fam]
			if ok != (help != "") || got != help {
				t.Fatalf("%s help = %q (present %v), want %q", fam, got, ok, help)
			}
		}
		le := func(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
		want := []promSample{{name: "fz_gauge", labels: [][2]string{{"a", v1}, {"b", v2}}, value: gauge + 1}}
		if v1 != w1 || v2 != w2 {
			want = []promSample{
				{name: "fz_gauge", labels: [][2]string{{"a", v1}, {"b", v2}}, value: gauge},
				{name: "fz_gauge", labels: [][2]string{{"a", w1}, {"b", w2}}, value: 1},
			}
		}
		counter := len(want)
		want = append(want, promSample{name: "fz_total", labels: [][2]string{{"a", v1}}, value: float64(count)})
		for _, b := range bounds {
			in := 0.0
			if obs <= b {
				in = 1
			}
			want = append(want, promSample{name: "fz_seconds_bucket", labels: [][2]string{{"b", v2}, {"le", le(b)}}, value: in})
		}
		want = append(want,
			promSample{name: "fz_seconds_bucket", labels: [][2]string{{"b", v2}, {"le", "+Inf"}}, value: 1},
			promSample{name: "fz_seconds_sum", labels: [][2]string{{"b", v2}}, value: 0 + obs},
			promSample{name: "fz_seconds_count", labels: [][2]string{{"b", v2}}, value: 1},
		)
		if len(samples) != len(want) {
			t.Fatalf("parsed %d samples, want %d:\n%s", len(samples), len(want), buf.String())
		}
		for i, w := range want {
			g := samples[i]
			if g.name != w.name || fmt.Sprint(g.labels) != fmt.Sprint(w.labels) || !sameFloat(g.value, w.value) {
				t.Fatalf("sample %d = %s%q %v, want %s%q %v", i, g.name, g.labels, g.value, w.name, w.labels, w.value)
			}
		}
		if samples[counter].raw != strconv.FormatUint(count, 10) {
			t.Fatalf("counter value %q, want %d exactly", samples[counter].raw, count)
		}
	})
}

// sameFloat is bit equality, with every NaN equal to every other (the
// text format has one NaN).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// promSample is one parsed sample line: its name, its labels in order,
// and its value (raw is the value's text).
type promSample struct {
	name   string
	labels [][2]string
	value  float64
	raw    string
}

// parseProm is a minimal scraper for the exposition format WriteProm
// writes: it returns each family's unescaped help text and every sample
// with its unescaped label values.
func parseProm(out string) (map[string]string, []promSample, error) {
	helps := map[string]string{}
	var samples []promSample
	if !strings.HasSuffix(out, "\n") {
		return nil, nil, fmt.Errorf("output does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			h, n, err := unescapeProm(text, false)
			if err != nil || n != len(text) {
				return nil, nil, fmt.Errorf("help line %q: bad escape", line)
			}
			helps[name] = h
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		var s promSample
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			return nil, nil, fmt.Errorf("sample line %q has no value", line)
		}
		s.name, line = line[:end], line[end:]
		if strings.HasPrefix(line, "{") {
			line = line[1:]
			for {
				name, rest, ok := strings.Cut(line, `="`)
				if !ok {
					return nil, nil, fmt.Errorf("label in %q has no value", line)
				}
				v, n, err := unescapeProm(rest, true)
				if err != nil || n == len(rest) {
					return nil, nil, fmt.Errorf("label %s: unterminated or bad value", name)
				}
				s.labels = append(s.labels, [2]string{name, v})
				line = rest[n+1:] // past the closing quote
				if strings.HasPrefix(line, ",") {
					line = line[1:]
					continue
				}
				if !strings.HasPrefix(line, "}") {
					return nil, nil, fmt.Errorf("label list not closed before %q", line)
				}
				line = line[1:]
				break
			}
		}
		raw, ok := strings.CutPrefix(line, " ")
		if !ok {
			return nil, nil, fmt.Errorf("no space before the value in %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, nil, err
		}
		s.value, s.raw = v, raw
		samples = append(samples, s)
	}
	return helps, samples, nil
}

// unescapeProm undoes WriteProm's escapes in s up to the first unescaped
// double quote when quoted (a label value), or through the end otherwise
// (a help text). It returns the text and how many bytes of s it consumed.
func unescapeProm(s string, quoted bool) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' && quoted:
			return b.String(), i, nil
		case c == '\\':
			if i+1 == len(s) {
				return "", 0, fmt.Errorf("trailing backslash")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case '"':
				if !quoted {
					return "", 0, fmt.Errorf(`\" outside a label value`)
				}
				b.WriteByte('"')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), len(s), nil
}
