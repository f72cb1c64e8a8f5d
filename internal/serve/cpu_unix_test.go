//go:build unix

package serve

import (
	"strconv"
	"strings"
	"testing"
)

// TestMetricsProcessCPU: /metrics carries process_cpu_seconds_total, a
// counter that does not fall between two scrapes with queries run
// between them.
func TestMetricsProcessCPU(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "cpu", K: 2, Graph: ringSpec(200)})
	scrape := func() float64 {
		t.Helper()
		status, raw := getJSON(t, ts.URL+"/metrics", nil)
		if status != 200 {
			t.Fatalf("metrics: %d", status)
		}
		text := string(raw)
		if !strings.Contains(text, "# TYPE process_cpu_seconds_total counter\n") {
			t.Fatal("metrics carry no process_cpu_seconds_total counter")
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "process_cpu_seconds_total "); ok {
				secs, err := strconv.ParseFloat(v, 64)
				if err != nil || secs < 0 {
					t.Fatalf("process_cpu_seconds_total %q: %v", v, err)
				}
				return secs
			}
		}
		t.Fatal("metrics carry no process_cpu_seconds_total sample")
		return 0
	}
	before := scrape()
	for i := 0; i < 50; i++ {
		postJSON(t, ts.URL+"/v1/corpora/cpu/knn", KNNRequest{Node: i, L: 5}, nil)
	}
	if after := scrape(); after < before {
		t.Errorf("process_cpu_seconds_total fell from %g to %g", before, after)
	}
}
