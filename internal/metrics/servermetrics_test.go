package metrics

import (
	"strings"
	"testing"
)

func TestServerMetricsShape(t *testing.T) {
	reg := NewRegistry()
	m := NewServerMetrics(reg)
	m.QueueDepth.Set(3)
	m.QueuePeak.SetMax(5)
	m.Shed.Inc()
	m.Request("factor", "200").Inc()
	m.Request("factor", "429").Add(2)
	m.Latency("factor").Observe(0.25)

	var sb strings.Builder
	if err := WriteText(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if _, _, err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("server bundle encodes invalid exposition: %v", err)
	}
	// The full inventory is present even for untouched families, and the
	// latency families cover every endpoint from the first scrape.
	for _, want := range []string{
		"sympack_server_queue_depth 3",
		"sympack_server_queue_peak 5",
		"sympack_server_shed_total 1",
		"sympack_server_cache_bytes 0",
		`sympack_server_requests_total{endpoint="factor",code="429"} 2`,
		`sympack_server_request_seconds_count{endpoint="solvebatch"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	if got := reg.Value("sympack_server_requests_total", "endpoint", "factor", "code", "200"); got != 1 {
		t.Fatalf("request counter = %g", got)
	}
}

// TestServerMetricsEndpointFamilies checks that a freshly built bundle
// exposes the latency family of every endpoint the server routes, before
// any request.
func TestServerMetricsEndpointFamilies(t *testing.T) {
	reg := NewRegistry()
	NewServerMetrics(reg)
	var sb strings.Builder
	if err := WriteText(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"analyze", "factor", "solve", "solvebatch", "solvecg"} {
		if want := `sympack_server_request_seconds_count{endpoint="` + ep + `"} 0`; !strings.Contains(sb.String(), want) {
			t.Errorf("fresh exposition missing %q", want)
		}
	}
}
