package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestServer(t *testing.T) (*Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	r.Counter("sweep_points_total", "points evaluated").Add(12)
	r.Histogram("census_quant_budget", "", LogBuckets(1e-12, 10, 8)).Observe(1e-9)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, r
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetrics(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE sweep_points_total counter",
		"sweep_points_total 12",
		"# TYPE census_quant_budget histogram",
		`census_quant_budget_bucket{le="+Inf"} 1`,
		"census_quant_budget_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeMetricsJSON(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status = %d", code)
	}
	if !strings.Contains(body, `"name": "sweep_points_total"`) {
		t.Fatalf("/metrics.json missing counter:\n%s", body)
	}
}

func TestServeHealthz(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestServePprofIndex(t *testing.T) {
	s, _ := startTestServer(t)
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d (len %d)", code, len(body))
	}
}

func TestServePprofHeap(t *testing.T) {
	s, _ := startTestServer(t)
	// A pprof protobuf profile is gzip-compressed: check the magic.
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/heap")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap status = %d", code)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("/debug/pprof/heap is not gzip (magic %x)", body[:2])
	}
}

func TestServePortZeroAddr(t *testing.T) {
	s, _ := startTestServer(t)
	addr := s.Addr()
	if !strings.HasPrefix(addr, "127.0.0.1:") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr() = %q, want a concrete bound port", addr)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", NewRegistry()); err == nil {
		t.Fatalf("Serve on a bogus address must fail")
	}
}
