package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpiredDeadlineFailsFast pins the wire deadline contract: a
// timeout_ms=0 query carries an already-expired context, so the engine
// aborts before doing distance work and the client gets the mapped
// deadline_exceeded error immediately.
func TestExpiredDeadlineFailsFast(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "d", K: 3, Graph: ringSpec(120)})

	for _, ep := range []struct {
		path string
		req  any
	}{
		{"/knn", KNNRequest{Node: 0, L: 3}},
		{"/knnsig", KNNSigRequest{Signature: sigJSON(t, ringSpec(120), 3, 0), L: 3}},
		{"/range", RangeRequest{Signature: sigJSON(t, ringSpec(120), 3, 0), R: 2}},
		{"/nearestset", NearestSetRequest{Signature: sigJSON(t, ringSpec(120), 3, 0)}},
		{"/batchknn", BatchKNNRequest{Nodes: []int{0, 1, 2}, L: 3}},
	} {
		t.Run(strings.TrimPrefix(ep.path, "/"), func(t *testing.T) {
			start := time.Now()
			status, raw := postJSON(t, ts.URL+"/v1/corpora/d"+ep.path+"?timeout_ms=0", ep.req, nil)
			elapsed := time.Since(start)
			if status != http.StatusGatewayTimeout {
				t.Fatalf("status = %d, want 504 (body %s)", status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error.Code != "deadline_exceeded" {
				t.Fatalf("error body %s (err %v), want code deadline_exceeded", raw, err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("expired deadline took %v; the fast-fail path is not fast", elapsed)
			}
		})
	}
}

// TestDeadlineHeader checks the X-Ned-Timeout-Ms header is an equal
// spelling of the query parameter.
func TestDeadlineHeader(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "d", K: 2, Graph: ringSpec(30)})

	body, _ := json.Marshal(KNNRequest{Node: 0, L: 2})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/corpora/d/knn", bytes.NewReader(body))
	req.Header.Set("X-Ned-Timeout-Ms", "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, raw)
	}

	// A generous header deadline lets the query through.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/corpora/d/knn", bytes.NewReader(body))
	req.Header.Set("X-Ned-Timeout-Ms", "30000")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status with 30s deadline = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
}

// TestBadTimeoutRejected checks malformed deadlines are a 400, not a
// silent default.
func TestBadTimeoutRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "d", K: 2, Graph: ringSpec(20)})
	for _, bad := range []string{"abc", "-5", "1e999"} {
		status, raw := postJSON(t, ts.URL+"/v1/corpora/d/knn?timeout_ms="+bad, KNNRequest{Node: 0, L: 1}, nil)
		var er ErrorResponse
		_ = json.Unmarshal(raw, &er)
		if status != http.StatusBadRequest || er.Error.Code != "bad_request" {
			t.Fatalf("timeout_ms=%q: status %d code %q (body %s), want 400 bad_request", bad, status, er.Error.Code, raw)
		}
	}
}

// TestClientDisconnectCancels pins disconnect propagation: when the
// client abandons an admitted query, the handler's context (the HTTP
// request's own) cancels, the engine aborts, and the outcome is recorded
// as the 499 client-closed-request code rather than a success or a 5xx.
func TestClientDisconnectCancels(t *testing.T) {
	s := New(Options{})
	admitted := make(chan struct{})
	var once sync.Once
	// The hook holds the admitted query until net/http has cancelled its
	// request context, so the engine always starts on a context that is
	// already done. net/http watches the connection for the disconnect
	// only once the body has been read to its end, so the hook reads it
	// and hands the handler a copy.
	s.afterAdmit = func(r *http.Request) {
		once.Do(func() {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading the admitted request's body: %v", err)
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
			close(admitted)
			<-r.Context().Done()
		})
	}
	ts := newUnstartedServer(t, s)
	mustCreate(t, ts, CreateRequest{Name: "d", K: 3, Graph: ringSpec(150)})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(KNNRequest{Node: 0, L: 5})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts+"/v1/corpora/d/knn", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()

	<-admitted
	cancel() // client walks away while the query holds its admission slot
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled client request to error")
	}

	// The handler finishes asynchronously; its outcome lands in the
	// request counters as a 499.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, rows := s.met.requestTotals()
		if rows["knn"][StatusClientClosedRequest] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 499 recorded for the abandoned query; counters: %v", rows)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newUnstartedServer starts an httptest server over an already-built
// Server and returns its URL; a helper for tests that construct the
// Server themselves (to set the afterAdmit seam).
func newUnstartedServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// settledGoroutines lets lazily-started long-lived goroutines (http
// transport idle pools, executor workers idling down after ~100ms)
// settle, then reports the goroutine count to use as a leak baseline.
func settledGoroutines() int {
	time.Sleep(250 * time.Millisecond)
	return runtime.NumGoroutine()
}

// requireNoLeakedGoroutines polls until the process settles back to its
// baseline goroutine count, failing with a full stack dump otherwise.
func requireNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		// Allow a little slack over baseline: the net/http server keeps a
		// few transient accept/idle goroutines alive.
		if n <= baseline+5 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, baseline %d; leaked workers?\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestNoLeakedWorkers runs normal, expired, and abandoned queries, then
// checks the process settles back to its baseline goroutine count — no
// executor workers, coalescer passes, or handler goroutines left behind.
func TestNoLeakedWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "d", K: 3, Graph: ringSpec(100)})

	// Warm up so lazily-started long-lived goroutines exist before the
	// baseline is taken.
	postJSON(t, ts.URL+"/v1/corpora/d/knn", KNNRequest{Node: 0, L: 3}, nil)
	baseline := settledGoroutines()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				postJSON(t, ts.URL+"/v1/corpora/d/knn", KNNRequest{Node: i % 100, L: 3}, nil)
			case 1:
				postJSON(t, ts.URL+fmt.Sprintf("/v1/corpora/d/knn?timeout_ms=0"), KNNRequest{Node: i % 100, L: 3}, nil)
			default:
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				defer cancel()
				body, _ := json.Marshal(BatchKNNRequest{Nodes: []int{0, 1, 2, 3}, L: 3})
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/corpora/d/batchknn", bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	requireNoLeakedGoroutines(t, baseline)
}
