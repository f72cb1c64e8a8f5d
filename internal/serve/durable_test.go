package serve

import (
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"ned"
	"ned/internal/legacy"
)

// knnAnswers fingerprints a few KNN answers over the API.
func knnAnswers(t *testing.T, base, name string, nodes []int) string {
	t.Helper()
	out := ""
	for _, v := range nodes {
		var resp QueryResponse
		status, raw := postJSON(t, base+"/v1/corpora/"+name+"/knn", KNNRequest{Node: v, L: 4}, &resp)
		if status != http.StatusOK {
			t.Fatalf("knn(%d): status %d, body %s", v, status, raw)
		}
		out += fmt.Sprintf("%d:%v\n", v, resp.Neighbors)
	}
	return out
}

// TestServeDurableRestart drives the full durable serving lifecycle:
// create over the API (which attaches a durable directory), mutate,
// drain (checkpoint + close), then boot a second server over the same
// data directory and check the tenant comes back answering
// identically — mutations included.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone}
	s1, ts1 := newTestServer(t, opts)

	gs := ringSpec(60)
	mustCreate(t, ts1.URL, CreateRequest{Name: "ring", K: 2, Backend: "linear", Graph: gs})
	if !ned.HasDurableState(filepath.Join(dir, "ring")) {
		t.Fatal("create left no durable state on disk")
	}

	// Mutate: remove a handful, re-insert one.
	var resp map[string]any
	status, raw := postJSON(t, ts1.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{3, 9, 27, 41}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("remove: status %d, body %s", status, raw)
	}
	status, raw = postJSON(t, ts1.URL+"/v1/corpora/ring/insert", NodesRequest{Nodes: []int{9}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("insert: status %d, body %s", status, raw)
	}

	probes := []int{0, 5, 9, 30, 55}
	want := knnAnswers(t, ts1.URL, "ring", probes)

	if err := s1.CloseTenants(); err != nil {
		t.Fatalf("CloseTenants: %v", err)
	}
	ts1.Close()

	// Second server, same data directory: the tenant must recover.
	s2, ts2 := newTestServer(t, opts)
	recovered, err := s2.BootDurable()
	if err != nil {
		t.Fatalf("BootDurable: %v", err)
	}
	if len(recovered) != 1 || recovered[0] != "ring" {
		t.Fatalf("recovered %v, want [ring]", recovered)
	}
	tenant, err := s2.Registry().Get("ring")
	if err != nil {
		t.Fatalf("recovered tenant not registered: %v", err)
	}
	if tenant.K != 2 || tenant.Directed || !tenant.HasGraph {
		t.Fatalf("recovered tenant metadata: %+v", tenant)
	}
	if got := knnAnswers(t, ts2.URL, "ring", probes); got != want {
		t.Fatalf("answers diverged across restart:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if cs := tenant.Corpus.Stats(); cs.Nodes != 60-3 {
		t.Fatalf("recovered %d nodes, want %d", cs.Nodes, 60-3)
	}

	// The recovered tenant keeps journaling: mutate, reopen once more.
	status, raw = postJSON(t, ts2.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{5}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("remove after recovery: status %d, body %s", status, raw)
	}
	if err := s2.CloseTenants(); err != nil {
		t.Fatalf("CloseTenants: %v", err)
	}
	s3, _ := newTestServer(t, opts)
	if _, err := s3.BootDurable(); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	t3, err := s3.Registry().Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	if cs := t3.Corpus.Stats(); cs.Nodes != 60-4 {
		t.Fatalf("after second recovery: %d nodes, want %d", cs.Nodes, 60-4)
	}
	if err := s3.CloseTenants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDurableRecoveryWithoutDrain boots from a directory whose
// server never drained: the mutation log tail alone must carry the
// mutations.
func TestServeDurableRecoveryWithoutDrain(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone}
	_, ts1 := newTestServer(t, opts)
	mustCreate(t, ts1.URL, CreateRequest{Name: "ring", K: 2, Backend: "vp", Graph: ringSpec(40)})
	var resp map[string]any
	status, raw := postJSON(t, ts1.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{1, 2, 3}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("remove: status %d, body %s", status, raw)
	}
	ts1.Close() // no CloseTenants: simulates a crash after the commits

	s2, _ := newTestServer(t, opts)
	if _, err := s2.BootDurable(); err != nil {
		t.Fatalf("BootDurable: %v", err)
	}
	t2, err := s2.Registry().Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	if cs := t2.Corpus.Stats(); cs.Nodes != 37 {
		t.Fatalf("recovered %d nodes, want 37", cs.Nodes)
	}
	if err := s2.CloseTenants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDurableRefusesLegacyTenant: a tenant directory whose
// checkpoint an earlier build wrote stops BootDurable with
// ned.ErrLegacyFormat and is left byte for byte as it was, so
// `nedstats -upgrade DIR` can still convert it; converted, it boots.
func TestServeDurableRefusesLegacyTenant(t *testing.T) {
	for _, src := range []string{"../../testdata/rebalanced_durable", "../../testdata/v1wal_durable/undirected", "../../testdata/v1wal_durable/directed"} {
		dir := t.TempDir()
		tenant := filepath.Join(dir, "old")
		if err := os.CopyFS(tenant, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		before := tenantFiles(t, tenant)
		s, _ := newTestServer(t, Options{DataDir: dir, Fsync: ned.FsyncNone})
		if _, err := s.BootDurable(); !errors.Is(err, ned.ErrLegacyFormat) {
			t.Fatalf("%s: BootDurable got %v, want ned.ErrLegacyFormat", src, err)
		}
		if after := tenantFiles(t, tenant); !maps.Equal(after, before) {
			t.Errorf("%s: BootDurable changed the tenant directory (%d files before, %d after)", src, len(before), len(after))
		}
		if _, err := legacy.UpgradeDir(tenant); err != nil {
			t.Fatal(err)
		}
		if names, err := s.BootDurable(); err != nil || len(names) != 1 {
			t.Fatalf("%s: BootDurable after conversion recovered %v, err %v", src, names, err)
		}
		if err := s.CloseTenants(); err != nil {
			t.Fatal(err)
		}
	}
}

// tenantFiles maps each file in dir to its bytes.
func tenantFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// TestServeDurableDropDeletesState checks drop removes the tenant's
// directory and frees the name for re-creation.
func TestServeDurableDropDeletesState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone}
	_, ts := newTestServer(t, opts)
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Graph: ringSpec(20)})

	// A second create under the taken name must not disturb the state.
	status, _ := postJSON(t, ts.URL+"/v1/corpora", CreateRequest{Name: "ring", K: 2, Graph: ringSpec(20)}, nil)
	if status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", status)
	}
	if !ned.HasDurableState(filepath.Join(dir, "ring")) {
		t.Fatal("duplicate create destroyed the original tenant's state")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpora/ring", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d", r.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "ring")); !os.IsNotExist(err) {
		t.Fatalf("tenant directory survived the drop: %v", err)
	}
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 3, Graph: ringSpec(20)})
}

// TestServeAutoCheckpoint crosses CheckpointEvery and checks the log
// was truncated by a fresh checkpoint.
func TestServeAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone, CheckpointEvery: 3}
	s, ts := newTestServer(t, opts)
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Backend: "linear", Graph: ringSpec(30)})
	var resp map[string]any
	for i := 0; i < 3; i++ {
		status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{i}}, &resp)
		if status != http.StatusOK {
			t.Fatalf("remove %d: status %d, body %s", i, status, raw)
		}
	}
	tenant, err := s.Registry().Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	recs, _, durable := tenant.Corpus.DurableStats()
	if !durable || recs != 0 {
		t.Fatalf("after crossing CheckpointEvery: %d log records (durable=%v), want 0", recs, durable)
	}
	if err := s.CloseTenants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeUpdateGraphDurable checks an updategraph is one logged
// mutation like insert and remove: it counts toward CheckpointEvery, and
// a reboot without a drain serves the graph the log ends on.
func TestServeUpdateGraphDurable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone, CheckpointEvery: 3}
	s1, ts1 := newTestServer(t, opts)
	mustCreate(t, ts1.URL, CreateRequest{Name: "ring", K: 2, Graph: ringSpec(30)})
	tenant, err := s1.Registry().Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	withChords := func(n int, chords ...[2]int) *GraphSpec {
		gs := ringSpec(n)
		gs.Edges = append(gs.Edges, chords...)
		return gs
	}
	var resp map[string]any
	post := func(path string, body any, wantRecs int64) {
		t.Helper()
		if status, raw := postJSON(t, ts1.URL+"/v1/corpora/ring/"+path, body, &resp); status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, status, raw)
		}
		if recs, _, _ := tenant.Corpus.DurableStats(); recs != wantRecs {
			t.Fatalf("after %s: %d log records, want %d", path, recs, wantRecs)
		}
	}
	post("updategraph", withChords(30, [2]int{2, 12}), 1)
	post("remove", NodesRequest{Nodes: []int{4}}, 2)
	post("updategraph", withChords(30, [2]int{2, 12}, [2]int{5, 20}), 0) // the third record cuts a checkpoint
	post("updategraph", withChords(34, [2]int{5, 20}, [2]int{31, 8}, [2]int{32, 8}), 1)
	post("insert", NodesRequest{Nodes: []int{32}}, 2)

	probes := []int{0, 5, 8, 20, 31, 32}
	want := knnAnswers(t, ts1.URL, "ring", probes)
	ts1.Close() // no CloseTenants: the log tail alone carries the last edit

	s2, ts2 := newTestServer(t, opts)
	if _, err := s2.BootDurable(); err != nil {
		t.Fatalf("BootDurable: %v", err)
	}
	if got := knnAnswers(t, ts2.URL, "ring", probes); got != want {
		t.Fatalf("answers diverged across the reboot:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := s2.CloseTenants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeNonDurableUnaffected checks a DataDir-less server behaves
// as before: no state on disk, drop works, CloseTenants is a no-op.
func TestServeNonDurableUnaffected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Graph: ringSpec(20)})
	tenant, err := s.Registry().Get("ring")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, durable := tenant.Corpus.DurableStats(); durable {
		t.Fatal("tenant durable without a DataDir")
	}
	if err := s.CloseTenants(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTenant("ring"); err != nil {
		t.Fatal(err)
	}
}
