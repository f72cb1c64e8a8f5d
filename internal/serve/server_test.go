package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ned"
	"ned/internal/legacy"
	"ned/internal/tree"
)

// ringSpec builds an n-cycle with a few chords so neighborhoods differ
// across nodes and KNN answers are non-trivial.
func ringSpec(n int) *GraphSpec {
	gs := &GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		gs.Edges = append(gs.Edges, [2]int{i, (i + 1) % n})
	}
	for i := 0; i < n; i += 7 {
		gs.Edges = append(gs.Edges, [2]int{i, (i + n/2) % n})
	}
	return gs
}

// newTestServer boots a Server over httptest and registers cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON round-trips a JSON request and decodes the response body.
func postJSON(t *testing.T, url string, req, resp any) (int, []byte) {
	t.Helper()
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		body = bytes.NewReader(b)
	}
	r, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp != nil {
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("unmarshal response %q: %v", raw, err)
		}
	}
	return r.StatusCode, raw
}

func getJSON(t *testing.T, url string, resp any) (int, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp != nil {
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("unmarshal response %q: %v", raw, err)
		}
	}
	return r.StatusCode, raw
}

// mustCreate creates a corpus over the API and fails the test otherwise.
func mustCreate(t *testing.T, base string, cr CreateRequest) CorpusInfo {
	t.Helper()
	var info CorpusInfo
	status, raw := postJSON(t, base+"/v1/corpora", cr, &info)
	if status != http.StatusCreated {
		t.Fatalf("create %q: status %d, body %s", cr.Name, status, raw)
	}
	return info
}

// sigJSON extracts node v's signature from a reference corpus built over
// the same spec, in the wire encoding.
func sigJSON(t *testing.T, gs *GraphSpec, k, v int) SignatureJSON {
	t.Helper()
	g, err := gs.Build()
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	c, err := ned.NewCorpus(g, k)
	if err != nil {
		t.Fatalf("build corpus: %v", err)
	}
	sig, err := c.Signature(ned.NodeID(v))
	if err != nil {
		t.Fatalf("signature(%d): %v", v, err)
	}
	return SignatureJSON{Node: v, K: sig.K, Tree: tree.Encode(sig.Tree)}
}

// TestServeEndToEnd drives every endpoint over two corpora, with the
// query traffic for both running concurrently.
func TestServeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	gs1, gs2 := ringSpec(60), ringSpec(90)

	mustCreate(t, ts.URL, CreateRequest{Name: "g1", K: 3, Graph: gs1})
	mustCreate(t, ts.URL, CreateRequest{Name: "g2", K: 2, Backend: "bk", Shards: 2, Graph: gs2})

	var list struct {
		Corpora []CorpusInfo `json:"corpora"`
	}
	if status, raw := getJSON(t, ts.URL+"/v1/corpora", &list); status != 200 || len(list.Corpora) != 2 {
		t.Fatalf("list: status %d, body %s", status, raw)
	}
	if list.Corpora[0].Name != "g1" || list.Corpora[1].Name != "g2" {
		t.Fatalf("list order: %+v", list.Corpora)
	}
	// "bk" and shards are accepted and ignored: every corpus reports
	// the one scan.
	if list.Corpora[1].Backend != "pruned" || list.Corpora[1].Nodes != 90 {
		t.Fatalf("g2 create not honored: %+v", list.Corpora[1])
	}

	// Concurrent query traffic over both tenants, every query endpoint.
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	queryCorpus := func(name string, gs *GraphSpec, k int) {
		defer wg.Done()
		base := ts.URL + "/v1/corpora/" + name
		sj := sigJSON(t, gs, k, 5)
		for i := 0; i < 8; i++ {
			var qr QueryResponse
			if status, raw := postJSON(t, base+"/knn", KNNRequest{Node: i, L: 3}, &qr); status != 200 {
				errs <- fmt.Errorf("%s knn: %d %s", name, status, raw)
				return
			} else if len(qr.Neighbors) != 3 || qr.Corpus != name {
				errs <- fmt.Errorf("%s knn answer: %+v", name, qr)
				return
			}
			if status, raw := postJSON(t, base+"/knnsig", KNNSigRequest{Signature: sj, L: 2}, &qr); status != 200 {
				errs <- fmt.Errorf("%s knnsig: %d %s", name, status, raw)
				return
			}
			if status, raw := postJSON(t, base+"/range", RangeRequest{Signature: sj, R: 1}, &qr); status != 200 {
				errs <- fmt.Errorf("%s range: %d %s", name, status, raw)
				return
			}
			var found bool
			for _, nb := range qr.Neighbors {
				if nb.Node == 5 && nb.Dist == 0 {
					found = true
				}
			}
			if !found {
				errs <- fmt.Errorf("%s range(1) around node 5's own signature misses node 5: %+v", name, qr.Neighbors)
				return
			}
			if status, raw := postJSON(t, base+"/nearestset", NearestSetRequest{Signature: sj}, &qr); status != 200 {
				errs <- fmt.Errorf("%s nearestset: %d %s", name, status, raw)
				return
			}
			var br BatchResponse
			if status, raw := postJSON(t, base+"/batchknn", BatchKNNRequest{Nodes: []int{0, 1, 2}, Signatures: []SignatureJSON{sj}, L: 2}, &br); status != 200 {
				errs <- fmt.Errorf("%s batchknn: %d %s", name, status, raw)
				return
			} else if len(br.Results) != 4 {
				errs <- fmt.Errorf("%s batchknn results: %+v", name, br)
				return
			}
		}
	}
	wg.Add(2)
	go queryCorpus("g1", gs1, 3)
	go queryCorpus("g2", gs2, 2)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Mutations on g1: remove two nodes, verify they stop answering as
	// results, insert them back, and refresh via updategraph.
	var mresp map[string]any
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/g1/remove", NodesRequest{Nodes: []int{5, 6}}, &mresp); status != 200 {
		t.Fatalf("remove: %d %s", status, raw)
	}
	var qr QueryResponse
	postJSON(t, ts.URL+"/v1/corpora/g1/knn", KNNRequest{Node: 5, L: 60}, &qr)
	for _, nb := range qr.Neighbors {
		if nb.Node == 5 || nb.Node == 6 {
			t.Fatalf("removed node %d still answering", nb.Node)
		}
	}
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/g1/insert", NodesRequest{Nodes: []int{5, 6}}, &mresp); status != 200 {
		t.Fatalf("insert: %d %s", status, raw)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/g1/updategraph", gs1, &mresp); status != 200 {
		t.Fatalf("updategraph: %d %s", status, raw)
	}

	// Stats document matches the shared schema.
	var doc StatsDoc
	if status, raw := getJSON(t, ts.URL+"/v1/corpora/g1/stats", &doc); status != 200 {
		t.Fatalf("stats: %d %s", status, raw)
	}
	if doc.Corpus != "g1" || doc.Stats.Nodes != 60 || doc.Stats.Queries == 0 {
		t.Fatalf("stats doc: %+v", doc)
	}

	// Snapshot round-trips through LoadCorpus.
	resp, err := http.Get(ts.URL + "/v1/corpora/g2/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, snap)
	}
	restored, err := ned.LoadCorpus(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadCorpus(snapshot): %v", err)
	}
	if rs := restored.Stats(); rs.Nodes != 90 || rs.K != 2 {
		t.Fatalf("restored corpus: %+v", rs)
	}

	// Health names both corpora; drop brings it to one.
	var health struct {
		Status  string `json:"status"`
		Corpora int    `json:"corpora"`
	}
	if status, _ := getJSON(t, ts.URL+"/healthz", &health); status != 200 || health.Corpora != 2 {
		t.Fatalf("healthz: %d %+v", status, health)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpora/g1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != 200 {
		t.Fatalf("drop: %v %v", err, dresp)
	}
	dresp.Body.Close()
	if s.Registry().Len() != 1 {
		t.Fatalf("registry after drop: %d tenants", s.Registry().Len())
	}
}

// TestCreateFromSnapshotPath pins that a tenant created from a
// server-side snapshot has a graph exactly when its corpus does. What
// the snapshot endpoint serves is a NEDSEG02 segment with the graph in
// it, so a tenant restored from a download inserts like its source; a
// legacy text snapshot carries none, so once converted (nedstats
// -upgrade) insert is refused as no_graph. Unconverted, it is a
// bad_snapshot.
func TestCreateFromSnapshotPath(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "src", K: 2, Graph: ringSpec(40)})
	resp, err := http.Get(ts.URL + "/v1/corpora/src/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d, %v", resp.StatusCode, err)
	}
	if ct, cd := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Disposition"); ct != "application/octet-stream" || !strings.HasSuffix(cd, "filename=src.nedseg") {
		t.Errorf("snapshot headers: Content-Type %q, Content-Disposition %q", ct, cd)
	}
	downloaded := filepath.Join(t.TempDir(), "src.nedseg")
	if err := os.WriteFile(downloaded, snap, 0o600); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("../ned/testdata/corpus_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "text", SnapshotPath: "../ned/testdata/corpus_v2.golden"}, nil)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "bad_snapshot") || !strings.Contains(string(raw), "nedstats -upgrade") {
		t.Errorf("create from an unconverted text snapshot answered %d %s, want 400 bad_snapshot naming nedstats -upgrade", status, raw)
	}
	var converted bytes.Buffer
	if _, err := legacy.Upgrade(&converted, text); err != nil {
		t.Fatal(err)
	}
	convertedPath := filepath.Join(t.TempDir(), "text.nedseg")
	if err := os.WriteFile(convertedPath, converted.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		hasGraph   bool
		status     int
	}{
		{"downloaded", downloaded, true, http.StatusOK},
		{"text", convertedPath, false, http.StatusConflict},
	} {
		mustCreate(t, ts.URL, CreateRequest{Name: tc.name, SnapshotPath: tc.path})
		tenant, err := s.Registry().Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if tenant.HasGraph != tc.hasGraph {
			t.Errorf("%s: Tenant.HasGraph = %v, want %v", tc.name, tenant.HasGraph, tc.hasGraph)
		}
		status, raw := postJSON(t, ts.URL+"/v1/corpora/"+tc.name+"/insert", NodesRequest{Nodes: []int{3}}, nil)
		if status != tc.status || (status != http.StatusOK && !strings.Contains(string(raw), "no_graph")) {
			t.Errorf("%s: insert answered %d %s, want %d", tc.name, status, raw, tc.status)
		}
		status, raw = postJSON(t, ts.URL+"/v1/corpora/"+tc.name+"/updategraph", ringSpec(40), nil)
		if status != tc.status || (status != http.StatusOK && !strings.Contains(string(raw), "no_graph")) {
			t.Errorf("%s: updategraph answered %d %s, want %d", tc.name, status, raw, tc.status)
		}
	}
}

// TestErrorMapping pins the wire contract: typed errors come back as
// stable JSON codes with their mapped HTTP statuses.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "g", K: 2, Graph: ringSpec(20)})

	decodeErr := func(raw []byte) string {
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("error body %q: %v", raw, err)
		}
		return er.Error.Code
	}

	cases := []struct {
		name   string
		do     func() (int, []byte)
		status int
		code   string
	}{
		{"unknown corpus", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/nope/knn", KNNRequest{Node: 0, L: 1}, nil)
		}, http.StatusNotFound, "corpus_not_found"},
		{"duplicate create", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "g", K: 2, Graph: ringSpec(4)}, nil)
		}, http.StatusConflict, "corpus_exists"},
		{"duplicate create with a bad edge", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "g", K: 2, Graph: &GraphSpec{Nodes: 3, Edges: [][2]int{{0, 5}}}}, nil)
		}, http.StatusConflict, "corpus_exists"},
		{"bad l", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/g/knn", KNNRequest{Node: 0, L: 0}, nil)
		}, http.StatusBadRequest, "bad_l"},
		{"node out of range", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/g/knn", KNNRequest{Node: 9999, L: 1}, nil)
		}, http.StatusBadRequest, "node_out_of_range"},
		{"bad radius", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/g/range", RangeRequest{Signature: sigJSON(t, ringSpec(20), 2, 0), R: -1}, nil)
		}, http.StatusBadRequest, "bad_radius"},
		{"k mismatch", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/g/knnsig", KNNSigRequest{Signature: sigJSON(t, ringSpec(20), 3, 0), L: 1}, nil)
		}, http.StatusBadRequest, "k_mismatch"},
		{"bad signature tree", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora/g/knnsig", KNNSigRequest{Signature: SignatureJSON{K: 2, Tree: "not-a-tree(("}, L: 1}, nil)
		}, http.StatusBadRequest, "bad_signature"},
		{"malformed body", func() (int, []byte) {
			r, err := http.Post(ts.URL+"/v1/corpora/g/knn", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			raw, _ := io.ReadAll(r.Body)
			return r.StatusCode, raw
		}, http.StatusBadRequest, "bad_request"},
		{"bad backend on create", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "h", K: 2, Backend: "btree", Graph: ringSpec(4)}, nil)
		}, http.StatusBadRequest, "bad_backend"},
		{"bad corpus name", func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "sp ace", K: 2, Graph: ringSpec(4)}, nil)
		}, http.StatusBadRequest, "bad_request"},
		{"drop unknown", func() (int, []byte) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpora/nope", nil)
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			raw, _ := io.ReadAll(r.Body)
			return r.StatusCode, raw
		}, http.StatusNotFound, "corpus_not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := tc.do()
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, raw)
			}
			if code := decodeErr(raw); code != tc.code {
				t.Fatalf("code = %q, want %q (body %s)", code, tc.code, raw)
			}
		})
	}
}

// TestMetricsExport checks the Prometheus exposition carries both the
// server counters and the per-corpus engine counters.
func TestMetricsExport(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "m1", K: 2, Graph: ringSpec(30)})
	mustCreate(t, ts.URL, CreateRequest{Name: "m2", K: 2, Graph: ringSpec(40)})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/corpora/m1/knn", KNNRequest{Node: i, L: 2}, nil)
	}
	postJSON(t, ts.URL+"/v1/corpora/m2/knn", KNNRequest{Node: 0, L: 2}, nil)

	status, raw := getJSON(t, ts.URL+"/metrics", nil)
	if status != 200 {
		t.Fatalf("metrics: %d", status)
	}
	text := string(raw)
	for _, want := range []string{
		`nedserve_requests_total{endpoint="knn",code="200"}`,
		`nedserve_request_duration_seconds_bucket{endpoint="knn",le="+Inf"}`,
		`nedserve_request_duration_seconds_count{endpoint="knn"}`,
		"nedserve_inflight_limit 256",
		"nedserve_overloads_total 0",
		"nedserve_corpora 2",
		`ned_corpus_nodes{corpus="m1"} 30`,
		`ned_corpus_nodes{corpus="m2"} 40`,
		`ned_corpus_queries_total{corpus="m1"}`,
		`ned_corpus_cascade_prunes_total{corpus="m1",tier="size"}`,
		`ned_corpus_cascade_prunes_total{corpus="m2",tier="label"}`,
		`ned_corpus_mutations_total{corpus="m1"}`,
		`ned_corpus_lock_wait_ns_total{corpus="m2"}`,
		`ned_corpus_clone_bytes_total{corpus="m1"}`,
		`ned_corpus_rows_bound_total{corpus="m2"}`,
		`ned_corpus_hungarian_cells_total{corpus="m1"}`,
		`ned_corpus_verify_levels_total{corpus="m2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The two series that described a tree index went with the trees,
	// the per-shard series with the shard, the planner's with the
	// planner and the coalescer's with the coalescer.
	for _, gone := range []string{"ned_corpus_rebuilds_total", "ned_corpus_stale_ratio", "ned_corpus_shards", "ned_shard_", "ned_corpus_plan_scans_total", "nedserve_coalesce"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still export %q", gone)
		}
	}
	// Engine query counters must reflect the traffic that just ran.
	var doc StatsDoc
	getJSON(t, ts.URL+"/v1/corpora/m1/stats", &doc)
	if doc.Stats.Queries < 3 {
		t.Fatalf("m1 engine queries = %d, want >= 3", doc.Stats.Queries)
	}
}

// TestCreateAcceptsRetiredTuningKeys: a create request written for the
// four-backend engine — a tree backend, a rebuild threshold — still
// creates a corpus. The backend name is parsed and ignored, and the
// decoder drops keys it does not know (no DisallowUnknownFields).
func TestCreateAcceptsRetiredTuningKeys(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(map[string]any{
		"name": "old", "k": 2, "backend": "vp", "rebuild_threshold": 0.1, "graph": ringSpec(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/corpora", json.RawMessage(body), nil); status != http.StatusCreated {
		t.Fatalf("create with backend=vp and rebuild_threshold: %d %s", status, raw)
	}
	var qr QueryResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/old/knn", KNNRequest{Node: 0, L: 3}, &qr); status != 200 || len(qr.Neighbors) != 3 {
		t.Fatalf("knn on the created corpus: %d %s", status, raw)
	}
	var doc StatsDoc
	getJSON(t, ts.URL+"/v1/corpora/old/stats", &doc)
	if got := doc.Stats.Backend.String(); got != "pruned" {
		t.Errorf("stats backend = %q, want \"pruned\"", got)
	}
}

// TestGracefulShutdownDrains pins the drain contract: Shutdown waits for
// an admitted in-flight query, which completes with its full answer.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.afterAdmit = func(*http.Request) {
		once.Do(func() {
			close(admitted)
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustCreate(t, ts.URL, CreateRequest{Name: "d", K: 2, Graph: ringSpec(30)})

	type result struct {
		status int
		resp   QueryResponse
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		var r result
		body, _ := json.Marshal(KNNRequest{Node: 0, L: 3})
		resp, err := http.Post(ts.URL+"/v1/corpora/d/knn", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err
		} else {
			defer resp.Body.Close()
			r.status = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
		}
		resc <- r
	}()

	<-admitted
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()

	// Shutdown must not return while the query is still held open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight query finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the query drained")
	}
	r := <-resc
	if r.err != nil || r.status != 200 || len(r.resp.Neighbors) != 3 {
		t.Fatalf("drained query result: err=%v status=%d resp=%+v", r.err, r.status, r.resp)
	}
}
