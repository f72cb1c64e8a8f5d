package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServeKNNClients measures the HTTP tier under 1, 4, 16 and 64
// closed-loop clients: b.N KNN(5) requests by node through
// Server.Handler() over httptest against the PGP analog at scale 0.1,
// reporting the median request latency. The repository benchmark drives
// at most two clients, so this is the only measurement of the serving
// tier under a burst; run it with -benchtime 2000x.
func BenchmarkServeKNNClients(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tenant, err := CreateTenant(&CreateRequest{Name: "bench", K: 3, Dataset: "PGP", Scale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Registry().Put(tenant); err != nil {
		b.Fatal(err)
	}
	tenant.Corpus.Rebuild() // materialize outside the measured windows
	nodes := tenant.Corpus.Stats().Nodes

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	url := ts.URL + "/v1/corpora/bench/knn"

	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			durations := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						body := fmt.Sprintf(`{"node":%d,"l":5}`, rng.Intn(nodes))
						start := time.Now()
						resp, err := client.Post(url, "application/json", strings.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						_, err = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							b.Errorf("knn: status %d, reading body: %v", resp.StatusCode, err)
							return
						}
						durations[i] = time.Since(start)
					}
				}(int64(clients*1000 + w))
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(durations)
			b.ReportMetric(float64(durations[len(durations)/2].Nanoseconds())/1e3, "p50-µs")
		})
	}
}
