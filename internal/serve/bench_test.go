package serve

import (
	"bytes"
	"encoding/json"
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

	"ned"
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

// BenchmarkGraphSpecDecode measures what decoding an inline graph costs
// the create path: the create request the repository benchmark sends
// for the PGP analog at scale 4 (10 680 nodes, 21 356 edges, ~240 KB),
// decoded into a CreateRequest as Server.decode does (scan), and, for
// comparison, by encoding/json's Decoder alone (json). ms/op is one
// decode.
func BenchmarkGraphSpecDecode(b *testing.B) {
	g := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: 4, Seed: 1})
	gs := &GraphSpec{Nodes: g.NumNodes()}
	for _, e := range g.Edges() {
		gs.Edges = append(gs.Edges, [2]int{int(e.U), int(e.V)})
	}
	body, err := json.Marshal(CreateRequest{Name: "bench", K: 3, Backend: "pruned", Shards: 2, Workers: 2, Graph: gs})
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func(*CreateRequest) error
	}{
		{"scan", func(cr *CreateRequest) error { return decodeBody(body, cr) }},
		{"json", func(cr *CreateRequest) error { return json.NewDecoder(bytes.NewReader(body)).Decode(cr) }},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var cr CreateRequest
				if err := dec.decode(&cr); err != nil || len(cr.Graph.Edges) != len(gs.Edges) {
					b.Fatalf("decoded %d edges of %d: %v", len(cr.Graph.Edges), len(gs.Edges), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}
