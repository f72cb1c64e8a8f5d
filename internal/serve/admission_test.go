package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCoalescedKNNNodeIdentical is the burst equivalence suite: for
// every backend name, a burst of single-node KNN requests held at the
// admission seam and released together must return answers
// node-identical to the same queries served one at a time. Concurrent
// requests share the corpus's published view and nothing else, each
// sweeping on its own goroutine, so a burst may reorder work but never
// change an answer.
func TestCoalescedKNNNodeIdentical(t *testing.T) {
	const (
		nodes   = 80
		l       = 4
		queries = 32
	)
	gs := ringSpec(nodes)

	for _, backend := range []string{"vp", "bk", "linear", "pruned"} {
		t.Run(backend, func(t *testing.T) {
			cr := CreateRequest{Name: "c", K: 3, Backend: backend, Shards: 3, Workers: 2, Graph: gs}

			// Reference answers: sequential queries.
			_, direct := newTestServer(t, Options{})
			mustCreate(t, direct.URL, cr)
			want := make([][]NeighborJSON, queries)
			for i := range want {
				var qr QueryResponse
				status, raw := postJSON(t, direct.URL+"/v1/corpora/c/knn", KNNRequest{Node: i % nodes, L: l}, &qr)
				if status != 200 {
					t.Fatalf("direct knn(%d): %d %s", i, status, raw)
				}
				want[i] = qr.Neighbors
			}

			// The burst: every request parks at the seam until all of
			// them are admitted, then all run at once.
			s := New(Options{})
			admitted, gate := make(chan struct{}, queries), make(chan struct{})
			s.afterAdmit = func(*http.Request) {
				admitted <- struct{}{}
				<-gate
			}
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			t.Cleanup(release)
			url := newUnstartedServer(t, s)
			mustCreate(t, url, cr)
			got := make([][]NeighborJSON, queries)
			var wg sync.WaitGroup
			wg.Add(queries)
			for i := 0; i < queries; i++ {
				go func(i int) {
					defer wg.Done()
					var qr QueryResponse
					status, raw := postJSON(t, url+"/v1/corpora/c/knn", KNNRequest{Node: i % nodes, L: l}, &qr)
					if status != 200 {
						t.Errorf("burst knn(%d): %d %s", i, status, raw)
						return
					}
					got[i] = qr.Neighbors
				}(i)
			}
			for i := 0; i < queries; i++ {
				select {
				case <-admitted:
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d burst requests reached the admission seam", i, queries)
				}
			}
			release()
			wg.Wait()

			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("query %d (node %d): burst answer diverges\n sequential: %+v\n burst:      %+v",
						i, i%nodes, want[i], got[i])
				}
			}
		})
	}
}

// TestAdmissionControl pins overload semantics: with the in-flight
// budget full, the next query is refused immediately with the 429
// overloaded code — without disturbing the admitted queries, which
// complete normally once unblocked.
func TestAdmissionControl(t *testing.T) {
	const limit = 2
	s := New(Options{MaxInflight: limit})
	admitted := make(chan struct{}, limit)
	release := make(chan struct{})
	s.afterAdmit = func(*http.Request) {
		admitted <- struct{}{}
		<-release
	}
	url := newUnstartedServer(t, s)
	mustCreate(t, url, CreateRequest{Name: "a", K: 2, Graph: ringSpec(40)})

	// Fill the budget with queries parked inside the admission window.
	type result struct {
		status int
		raw    []byte
	}
	results := make(chan result, limit)
	for i := 0; i < limit; i++ {
		go func(i int) {
			status, raw := postJSON(t, url+"/v1/corpora/a/knn", KNNRequest{Node: i, L: 2}, nil)
			results <- result{status, raw}
		}(i)
	}
	for i := 0; i < limit; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("queries never reached the admission seam")
		}
	}

	// The budget is full: the next query must be refused fast.
	start := time.Now()
	status, raw := postJSON(t, url+"/v1/corpora/a/knn?timeout_ms=30000", KNNRequest{Node: 9, L: 2}, nil)
	fastFail := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget query: status %d (body %s), want 429", status, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != "overloaded" {
		t.Fatalf("over-budget body %s, want code overloaded", raw)
	}
	if fastFail > time.Second {
		t.Fatalf("429 took %v; overload refusal must not queue", fastFail)
	}
	if ss := s.Stats(); ss.Inflight != limit || ss.Overloads != 1 {
		t.Fatalf("stats during overload: %+v", ss)
	}

	// Control-plane calls stay responsive while queries are saturated.
	if st, _ := getJSON(t, url+"/healthz", nil); st != 200 {
		t.Fatalf("healthz during overload: %d", st)
	}
	if st, _ := getJSON(t, url+"/v1/corpora/a/stats", nil); st != 200 {
		t.Fatalf("stats endpoint during overload: %d", st)
	}

	// Releasing the seam lets the admitted queries finish untouched.
	close(release)
	for i := 0; i < limit; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("admitted query finished with %d (body %s), want 200", r.status, r.raw)
		}
	}
	if ss := s.Stats(); ss.Inflight != 0 {
		t.Fatalf("inflight after drain: %+v", ss)
	}
}
