package main

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is the serve-layer counters of one GET /metrics.
type scrape struct {
	knnRequests, coalesced, batches, overloads float64
}

// scrapeMetrics reads the daemon's Prometheus page and times the read.
// A failed scrape reads as zeros; the counters are context, not gates.
func scrapeMetrics(hc *http.Client, base string) (scrape, float64) {
	var s scrape
	t0 := time.Now()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return s, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case `nedserve_request_duration_seconds_count{endpoint="knn"}`:
			s.knnRequests = v
		case "nedserve_coalesced_requests_total":
			s.coalesced = v
		case "nedserve_coalesce_batches_total":
			s.batches = v
		case "nedserve_overloads_total":
			s.overloads = v
		}
	}
	return s, ms(time.Since(t0))
}

// report writes the counters' movement since before. A restart in
// between resets the daemon's counters; the later reading then stands
// alone.
func (s scrape) report(before scrape, m metricSet) {
	if s.knnRequests < before.knnRequests {
		before = scrape{}
	}
	ratio, batch := 0.0, 0.0
	if d := s.knnRequests - before.knnRequests; d > 0 {
		ratio = (s.coalesced - before.coalesced) / d
	}
	if d := s.batches - before.batches; d > 0 {
		batch = (s.coalesced - before.coalesced) / d
	}
	m.set("serve.coalesced_ratio", ratio)
	m.set("serve.coalesce_batch_mean", batch)
	m.set("serve.overloads", s.overloads-before.overloads)
}
