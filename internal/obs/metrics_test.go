package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(m *MetricWriter) {
		m.Counter("leaksig_test_total", "A test counter.", 42, label("tenant", "app.a"))
		m.Counter("leaksig_test_total", "A test counter.", 7, label("tenant", "app.b"))
		m.Gauge("leaksig_test_depth", "A test gauge.", 3.5)
	}))
	out := reg.expose()

	wantLines := []string{
		"# HELP leaksig_test_total A test counter.",
		"# TYPE leaksig_test_total counter",
		`leaksig_test_total{tenant="app.a"} 42`,
		`leaksig_test_total{tenant="app.b"} 7`,
		"# TYPE leaksig_test_depth gauge",
		"leaksig_test_depth 3.5",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family even with samples from repeated
	// emit calls.
	if n := strings.Count(out, "# TYPE leaksig_test_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestExpositionMergesFamiliesAcrossCollectors(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []string{"x", "y"} {
		v := v
		reg.Register(CollectorFunc(func(m *MetricWriter) {
			m.Counter("leaksig_shared_total", "Shared family.", 1, label("src", v))
		}))
	}
	out := reg.expose()
	if n := strings.Count(out, "# TYPE leaksig_shared_total counter"); n != 1 {
		t.Fatalf("shared family should have exactly one TYPE header, got %d:\n%s", n, out)
	}
	for _, want := range []string{`leaksig_shared_total{src="x"} 1`, `leaksig_shared_total{src="y"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(m *MetricWriter) {
		m.Gauge("leaksig_esc", "Escapes.", 1, label("v", "a\"b\\c\nd"))
	}))
	out := reg.expose()
	if !strings.Contains(out, `leaksig_esc{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped correctly:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	m := newMetricWriter()
	h.Write(m, "leaksig_hist", "Test histogram.")
	var sb strings.Builder
	m.render(&sb)
	out := sb.String()
	wants := []string{
		"# TYPE leaksig_hist histogram",
		`leaksig_hist_bucket{le="0.1"} 1`,
		`leaksig_hist_bucket{le="1"} 3`,
		`leaksig_hist_bucket{le="10"} 4`,
		`leaksig_hist_bucket{le="+Inf"} 5`,
		"leaksig_hist_count 5",
		"leaksig_hist_sum 56.05",
	}
	for _, want := range wants {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("histogram exposition missing %q; got:\n%s", want, out)
		}
	}
}

func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Register(BuildInfoCollector())
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "leaksig_build_info{") {
		t.Errorf("scrape missing leaksig_build_info:\n%s", buf[:n])
	}
}
