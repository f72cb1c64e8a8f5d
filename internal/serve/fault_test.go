package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"ned"
	"ned/internal/faultfs"
)

// The serving tier under injected storage failure: a tenant whose disk
// dies must degrade — mutations 503 with a stable code and Retry-After,
// reads keep answering, /readyz flips while /healthz stays up, the
// gauges move — and recover end-to-end once the disk heals.

// TestServeDegradedTenantLifecycle drives the full degrade/serve/recover
// arc over the HTTP API with a scripted ENOSPC on checkpoint writes.
func TestServeDegradedTenantLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone, CheckpointEvery: 1, CoalesceWindow: -1}
	s, ts := newTestServer(t, opts)
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Backend: "linear", Graph: ringSpec(40)})

	// Script every checkpoint-segment write under the data directory to
	// fail with ENOSPC. The WAL handle predates the injector, so commits
	// keep succeeding — exactly the "log fine, segment disk full" shape.
	inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "checkpoint-", Fault: faultfs.FaultErr, Err: syscall.ENOSPC,
	})
	defer inj.Install()()

	// The remove itself commits (200 — the client's write is durable in
	// the log); the auto-checkpoint it triggers hits the fault and
	// degrades the tenant.
	var resp map[string]any
	status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{3}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("remove that triggers the failing checkpoint: status %d, body %s", status, raw)
	}
	if got := s.Stats().DegradedCorpora; got != 1 {
		t.Fatalf("DegradedCorpora = %d, want 1", got)
	}

	// Mutations on the degraded tenant: 503, code "degraded", Retry-After.
	r, err := http.Post(ts.URL+"/v1/corpora/ring/remove", "application/json", strings.NewReader(`{"nodes":[5]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation on degraded tenant: status %d, body %s", r.StatusCode, body)
	}
	if !strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("degraded mutation error body missing code: %s", body)
	}
	if ra := r.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded 503 carries no Retry-After header")
	}
	var er ErrorResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/insert", NodesRequest{Nodes: []int{3}}, &er); status != http.StatusServiceUnavailable || er.Error.Code != "degraded" {
		t.Fatalf("insert on degraded tenant: status %d, code %q, body %s", status, er.Error.Code, raw)
	}

	// Reads keep serving, and they see the committed remove.
	var qr QueryResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/knn", KNNRequest{Node: 10, L: 4}, &qr); status != http.StatusOK {
		t.Fatalf("knn on degraded tenant: status %d, body %s", status, raw)
	}
	for _, n := range qr.Neighbors {
		if n.Node == 3 {
			t.Fatal("degraded read served the removed node")
		}
	}

	// /healthz is liveness (up), /readyz is writability (degraded).
	if status, _ := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("/healthz on degraded server: status %d", status)
	}
	var ready map[string]any
	status, raw = getJSON(t, ts.URL+"/readyz", &ready)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with degraded tenant: status %d, body %s", status, raw)
	}
	if !strings.Contains(string(raw), `"ring"`) {
		t.Fatalf("/readyz does not name the degraded tenant: %s", raw)
	}

	// The gauges move.
	_, metrics := getJSON(t, ts.URL+"/metrics", nil)
	for _, want := range []string{
		`ned_corpus_degraded{corpus="ring"} 1`,
		`ned_corpus_durable{corpus="ring"} 1`,
		`ned_server_panics_total 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Disk heals: one recovery pass clears the tenant via the verified
	// checkpoint rewrite, and the whole surface flips back.
	inj.Reset()
	if n := s.RecoverDegraded(time.Now()); n != 1 {
		t.Fatalf("RecoverDegraded cleared %d tenants, want 1", n)
	}
	if status, raw := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("/readyz after recovery: status %d, body %s", status, raw)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{5}}, &resp); status != http.StatusOK {
		t.Fatalf("mutation after recovery: status %d, body %s", status, raw)
	}
	_, metrics = getJSON(t, ts.URL+"/metrics", nil)
	if !strings.Contains(string(metrics), `ned_corpus_degraded{corpus="ring"} 0`) {
		t.Fatal("degraded gauge did not clear after recovery")
	}
	if err := s.CloseTenants(); err != nil {
		t.Fatalf("CloseTenants after recovery: %v", err)
	}
}

// TestServeDegradedBackoff: a recovery pass inside the backoff window
// must not hammer the dead disk — only the first due attempt runs.
func TestServeDegradedBackoff(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: ned.FsyncNone, CheckpointEvery: 1, CoalesceWindow: -1}
	s, ts := newTestServer(t, opts)
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Backend: "linear", Graph: ringSpec(30)})

	inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "checkpoint-", Fault: faultfs.FaultErr,
	})
	defer inj.Install()()
	var resp map[string]any
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/remove", NodesRequest{Nodes: []int{1}}, &resp); status != http.StatusOK {
		t.Fatalf("remove: status %d, body %s", status, raw)
	}

	now := time.Now()
	before := len(inj.Trips())
	if n := s.RecoverDegraded(now); n != 0 {
		t.Fatalf("recovery on a still-dead disk cleared %d tenants", n)
	}
	tripped := len(inj.Trips())
	if tripped == before {
		t.Fatal("first recovery pass never reached the disk")
	}
	// Second pass inside the backoff window: no disk contact at all.
	if n := s.RecoverDegraded(now.Add(10 * time.Millisecond)); n != 0 {
		t.Fatalf("in-window recovery cleared %d tenants", n)
	}
	if got := len(inj.Trips()); got != tripped {
		t.Fatalf("in-window recovery pass hit the disk (%d trips, had %d)", got, tripped)
	}
	// Past the window it tries again — and succeeds once the disk heals.
	inj.Reset()
	if n := s.RecoverDegraded(now.Add(time.Minute)); n != 1 {
		t.Fatalf("post-window recovery on a healed disk cleared %d tenants, want 1", n)
	}
	if err := s.CloseTenants(); err != nil {
		t.Fatal(err)
	}
}

// TestServePanicRecoveryHandler: a panic inside a typed handler costs
// one request — 500 with a stable code, counter moves, daemon serves on.
func TestServePanicRecoveryHandler(t *testing.T) {
	s, ts := newTestServer(t, Options{CoalesceWindow: -1})
	mustCreate(t, ts.URL, CreateRequest{Name: "ring", K: 2, Graph: ringSpec(20)})

	s.afterAdmit = func(*http.Request) { panic("injected handler panic") }
	var er ErrorResponse
	status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/knn", KNNRequest{Node: 1, L: 3}, &er)
	if status != http.StatusInternalServerError || er.Error.Code != "panic" {
		t.Fatalf("panicking handler: status %d, code %q, body %s", status, er.Error.Code, raw)
	}
	s.afterAdmit = nil

	var qr QueryResponse
	if status, raw := postJSON(t, ts.URL+"/v1/corpora/ring/knn", KNNRequest{Node: 1, L: 3}, &qr); status != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d, body %s", status, raw)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	_, metrics := getJSON(t, ts.URL+"/metrics", nil)
	if !strings.Contains(string(metrics), "ned_server_panics_total 1") {
		t.Fatal("panic counter missing from metrics export")
	}
}

// TestServePanicRecoveryOutermost: the recoverware barrier catches
// panics from handlers outside the typed adapter.
func TestServePanicRecoveryOutermost(t *testing.T) {
	s := New(Options{CoalesceWindow: -1})
	h := s.recoverware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/anything", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("recoverware answered %d, want 500", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), `"panic"`) {
		t.Fatalf("recoverware body missing panic code: %s", rr.Body.String())
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}
