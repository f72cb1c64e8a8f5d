package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"ned"
	"ned/internal/tree"
)

// Options tunes a Server. The zero value serves with the defaults.
type Options struct {
	// MaxInflight bounds admitted queries (KNN, KNNSignature, Range,
	// NearestSet, BatchKNN) executing concurrently; requests beyond it
	// fail fast with 429. <= 0 means 256.
	MaxInflight int
	// CoalesceWindow once switched KNN request coalescing on and off.
	//
	// Deprecated: accepted and ignored; every KNN request runs its own
	// Corpus.KNN, as every other query does. The field stays until
	// callers outside this module (the benchmark's traced replay) stop
	// setting it.
	CoalesceWindow time.Duration
	// MaxRequestBytes bounds a request body. <= 0 means 8 MiB.
	MaxRequestBytes int64

	// DataDir, when non-empty, makes every tenant durable: creating a
	// corpus attaches a per-tenant directory under it (MakeDurable),
	// BootDurable recovers every tenant found there on startup, and
	// dropping a corpus deletes its directory. Empty means tenants live
	// only in memory, as before.
	DataDir string
	// Fsync is the WAL fsync policy for durable tenants: FsyncAlways
	// makes every acknowledged mutation crash-durable, FsyncNone trades
	// the latest acknowledged batches for mutation latency.
	Fsync ned.FsyncPolicy
	// CheckpointEvery cuts a fresh checkpoint segment once a durable
	// tenant's active mutation log holds this many records, bounding
	// recovery replay. <= 0 means 1024.
	CheckpointEvery int64
}

func (o *Options) defaults() {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 8 << 20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1024
	}
}

// Server is the multi-tenant HTTP service over the Corpus engine. Build
// one with New, mount Handler on an http.Server, and drain it with
// http.Server.Shutdown — in-flight queries finish before the listener
// closes.
type Server struct {
	opts Options
	reg  *Registry
	adm  *admission
	met  *metrics
	mux  *http.ServeMux

	// durMu serializes durable tenant attach/detach (create, drop, boot
	// recovery, drain) — control-plane only, never on the query path.
	durMu sync.Mutex

	// recMu guards the degraded-recovery backoff table (durable.go).
	recMu      sync.Mutex
	recovering map[string]*recoverState

	// afterAdmit, when set, runs after a query passes admission control
	// and before it executes — a test seam for holding slots open, or
	// holding a query until its client has gone.
	afterAdmit func(r *http.Request)
}

// New builds a Server with an empty registry.
func New(opts Options) *Server {
	opts.defaults()
	s := &Server{
		opts:       opts,
		reg:        NewRegistry(),
		adm:        newAdmission(opts.MaxInflight),
		met:        newMetrics(),
		mux:        http.NewServeMux(),
		recovering: make(map[string]*recoverState),
	}
	s.routes()
	return s
}

// Registry exposes the tenant table, for preloading corpora at boot.
func (s *Server) Registry() *Registry { return s.reg }

// Handler is the root handler to mount on an http.Server. The mux is
// wrapped in panic recovery so even handlers outside the typed-handler
// adapter (snapshot streaming, metrics) cannot take a connection down
// without a logged 500 and a counter increment.
func (s *Server) Handler() http.Handler { return s.recoverware(s.mux) }

// recoverware is the outermost panic barrier.
func (s *Server) recoverware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				writeError(w, fmt.Errorf("%w: %v", ErrPanic, p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ServerStats is a point-in-time snapshot of the serving counters.
type ServerStats struct {
	Corpora         int   `json:"corpora"`
	Inflight        int   `json:"inflight"`
	InflightLimit   int   `json:"inflight_limit"`
	Overloads       int64 `json:"overloads"`
	Panics          int64 `json:"panics"`
	DegradedCorpora int   `json:"degraded_corpora"`
}

// Stats reports the server-side counters (the engine counters live on
// each corpus's own stats).
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Corpora:         s.reg.Len(),
		Inflight:        s.adm.inflight(),
		InflightLimit:   s.adm.limit(),
		Overloads:       s.adm.overloads.Load(),
		Panics:          s.met.panics.Load(),
		DegradedCorpora: len(s.degradedTenants()),
	}
}

// degradedTenants lists the tenants currently refusing mutations
// because their durable storage failed.
func (s *Server) degradedTenants() []*Tenant {
	var out []*Tenant
	for _, t := range s.reg.All() {
		if t.Corpus.DurableHealth().Degraded {
			out = append(out, t)
		}
	}
	return out
}

// StatsDoc is the machine-readable per-corpus stats document. It is the
// single schema shared by the server's stats endpoint and nedstats
// -json, so the two can never drift apart.
type StatsDoc struct {
	Corpus string          `json:"corpus"`
	Stats  ned.CorpusStats `json:"stats"`
}

// EncodeStats writes a StatsDoc as indented JSON — the one encoding
// helper every stats surface goes through.
func EncodeStats(w io.Writer, doc StatsDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// --- wire types ---

// NeighborJSON is one query result on the wire.
type NeighborJSON struct {
	Node int `json:"node"`
	Dist int `json:"dist"`
}

func neighborsJSON(nbs []ned.Neighbor) []NeighborJSON {
	out := make([]NeighborJSON, len(nbs))
	for i, nb := range nbs {
		out[i] = NeighborJSON{Node: int(nb.Node), Dist: nb.Dist}
	}
	return out
}

// SignatureJSON is a query signature on the wire: the node's k plus its
// k-adjacent tree in the library's parent-vector text encoding (the
// same one signature files and snapshots use).
type SignatureJSON struct {
	Node int    `json:"node,omitempty"`
	K    int    `json:"k"`
	Tree string `json:"tree"`
}

func (sj *SignatureJSON) signature() (ned.Signature, error) {
	t, err := tree.Decode(sj.Tree)
	if err != nil {
		return ned.Signature{}, fmt.Errorf("%w: tree: %v", ned.ErrBadSignature, err)
	}
	return ned.Signature{Node: ned.NodeID(sj.Node), K: sj.K, Tree: t}, nil
}

// KNNRequest asks for the l nearest indexed nodes to a node of the
// corpus graph.
type KNNRequest struct {
	Node int `json:"node"`
	L    int `json:"l"`
}

// KNNSigRequest asks for the l nearest indexed nodes to an external
// signature (typically a node of a different graph).
type KNNSigRequest struct {
	Signature SignatureJSON `json:"signature"`
	L         int           `json:"l"`
}

// RangeRequest asks for every indexed node within distance R.
type RangeRequest struct {
	Signature SignatureJSON `json:"signature"`
	R         int           `json:"r"`
}

// NearestSetRequest asks for the full minimum-distance stratum.
type NearestSetRequest struct {
	Signature SignatureJSON `json:"signature"`
}

// BatchKNNRequest carries many KNN queries in one call: corpus-graph
// node IDs, external signatures, or both (nodes answer first).
type BatchKNNRequest struct {
	Nodes      []int           `json:"nodes,omitempty"`
	Signatures []SignatureJSON `json:"signatures,omitempty"`
	L          int             `json:"l"`
}

// NodesRequest names corpus-graph nodes for Insert/Remove.
type NodesRequest struct {
	Nodes []int `json:"nodes"`
}

// QueryResponse is the common envelope for query answers.
type QueryResponse struct {
	Corpus    string         `json:"corpus"`
	Neighbors []NeighborJSON `json:"neighbors"`
}

// BatchResponse is BatchKNN's envelope; Results aligns with the request
// order (nodes first, then signatures).
type BatchResponse struct {
	Corpus  string           `json:"corpus"`
	Results [][]NeighborJSON `json:"results"`
}

// CorpusInfo summarizes one tenant in list/create responses.
type CorpusInfo struct {
	Name     string `json:"name"`
	K        int    `json:"k"`
	Backend  string `json:"backend"`
	Directed bool   `json:"directed"`
	Nodes    int    `json:"nodes"`
}

func infoOf(t *Tenant) CorpusInfo {
	cs := t.Corpus.Stats()
	return CorpusInfo{
		Name:     t.Name,
		K:        cs.K,
		Backend:  cs.Backend.String(),
		Directed: cs.Directed,
		Nodes:    cs.Nodes,
	}
}

// --- plumbing ---

// requestContext maps the wire deadline onto the engine's context
// plumbing: a "timeout_ms" query parameter or X-Ned-Timeout-Ms header
// bounds the request (0 is a legal, already-expired deadline — useful
// for probing the fast-fail path), and the base context is the HTTP
// request's own, which the net/http server cancels the moment the
// client disconnects — so an abandoned query aborts at its next
// distance-loop check instead of burning executor time.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		raw = r.Header.Get("X-Ned-Timeout-Ms")
	}
	if raw == "" {
		return r.Context(), func() {}, nil
	}
	// ParseFloat accepts NaN, Inf and 1e300, and each converts to the
	// minimum Duration: the negated range test rejects them, negatives,
	// and anything past the largest Duration.
	ms, err := strconv.ParseFloat(raw, 64)
	ns := ms * float64(time.Millisecond)
	if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
		return nil, nil, fmt.Errorf("%w: timeout_ms %q must be a non-negative number of milliseconds that fits a time.Duration", ErrBadRequest, raw)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ns))
	return ctx, cancel, nil
}

// decode parses a JSON request body with a size cap. A body carrying an
// inline graph is read whole and scanned by hand when it is in the plain
// form (graphspec.go); every other goes through encoding/json.
func (s *Server) decode(r *http.Request, into any) error {
	body := http.MaxBytesReader(nil, r.Body, s.opts.MaxRequestBytes)
	var err error
	if p, ok := into.(plainDecoder); ok {
		var b bytes.Buffer
		b.Grow(int(min(max(r.ContentLength, 0), s.opts.MaxRequestBytes)) + bytes.MinRead)
		if _, err = b.ReadFrom(body); err == nil {
			err = decodeBody(b.Bytes(), p)
		}
	} else {
		err = json.NewDecoder(body).Decode(into)
	}
	if err != nil {
		return fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return nil
}

// decodeBody decodes the first JSON value of b into p, as a Decoder
// reading b would: by p's own scan when b is in its plain form.
func decodeBody(b []byte, p plainDecoder) error {
	if p.decodePlain(b) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(b)).Decode(p)
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone mid-write: nothing to do
	return status
}

// retryAfterSeconds is the backoff hint sent with 503s: degraded-mode
// recovery runs on a seconds-scale backoff loop, so an immediate retry
// would only be refused again.
const retryAfterSeconds = 2

func writeError(w http.ResponseWriter, err error) int {
	status, code := MapError(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	return writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// handler adapts a typed handler into an instrumented http.HandlerFunc.
// admit selects admission control (query endpoints only: mutations are
// serialized by the engine's own write lock, and control-plane calls
// must stay responsive under query overload).
func (s *Server) handler(endpoint string, admit bool, fn func(ctx context.Context, r *http.Request) (status int, body any, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := func() (status int) {
			// A panicking handler must cost one request, not the daemon:
			// recover, count, log, and answer with a typed 500. Headers may
			// already be gone if the panic hit mid-encode; the duplicate
			// WriteHeader is then a logged no-op, and the counter still
			// moves.
			defer func() {
				if p := recover(); p != nil {
					s.met.panics.Add(1)
					log.Printf("serve: panic in %s handler: %v\n%s", endpoint, p, debug.Stack())
					status = writeError(w, fmt.Errorf("%w: %v", ErrPanic, p))
				}
			}()
			if admit {
				if !s.adm.tryAcquire() {
					return writeError(w, ErrOverloaded)
				}
				defer s.adm.release()
				if s.afterAdmit != nil {
					s.afterAdmit(r)
				}
			}
			ctx, cancel, err := requestContext(r)
			if err != nil {
				return writeError(w, err)
			}
			defer cancel()
			st, body, err := fn(ctx, r)
			if err != nil {
				return writeError(w, err)
			}
			return writeJSON(w, st, body)
		}()
		s.met.observe(endpoint, status, time.Since(start))
	}
}

// tenant resolves the {name} path segment.
func (s *Server) tenant(r *http.Request) (*Tenant, error) {
	return s.reg.Get(r.PathValue("name"))
}

// --- routes ---

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	s.mux.HandleFunc("GET /v1/corpora", s.handler("list", false, s.handleList))
	s.mux.HandleFunc("POST /v1/corpora", s.handler("create", false, s.handleCreate))
	s.mux.HandleFunc("DELETE /v1/corpora/{name}", s.handler("drop", false, s.handleDrop))
	s.mux.HandleFunc("GET /v1/corpora/{name}/stats", s.handler("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /v1/corpora/{name}/snapshot", s.handleSnapshotHTTP)

	s.mux.HandleFunc("POST /v1/corpora/{name}/knn", s.handler("knn", true, s.handleKNN))
	s.mux.HandleFunc("POST /v1/corpora/{name}/knnsig", s.handler("knnsig", true, s.handleKNNSig))
	s.mux.HandleFunc("POST /v1/corpora/{name}/range", s.handler("range", true, s.handleRange))
	s.mux.HandleFunc("POST /v1/corpora/{name}/nearestset", s.handler("nearestset", true, s.handleNearestSet))
	s.mux.HandleFunc("POST /v1/corpora/{name}/batchknn", s.handler("batchknn", true, s.handleBatchKNN))

	s.mux.HandleFunc("POST /v1/corpora/{name}/insert", s.handler("insert", false, s.handleInsert))
	s.mux.HandleFunc("POST /v1/corpora/{name}/remove", s.handler("remove", false, s.handleRemove))
	s.mux.HandleFunc("POST /v1/corpora/{name}/updategraph", s.handler("updategraph", false, s.handleUpdateGraph))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "corpora": s.reg.Len()})
}

// handleReady is the readiness probe, distinct from liveness: /healthz
// answers "is the process up" (always yes while serving), /readyz
// answers "should this instance take writes" — 503 while any durable
// tenant is degraded, so an orchestrator can drain mutation traffic
// toward healthy replicas while reads keep flowing here.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	degraded := s.degradedTenants()
	if len(degraded) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "corpora": s.reg.Len()})
		return
	}
	names := make([]string, len(degraded))
	details := make(map[string]any, len(degraded))
	for i, t := range degraded {
		h := t.Corpus.DurableHealth()
		names[i] = t.Name
		details[t.Name] = map[string]any{
			"reason":            h.Reason,
			"since":             h.Since.Format(time.RFC3339),
			"recovery_attempts": h.RecoveryAttempts,
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":   "degraded",
		"degraded": names,
		"detail":   details,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

func (s *Server) handleList(ctx context.Context, r *http.Request) (int, any, error) {
	tenants := s.reg.All()
	infos := make([]CorpusInfo, len(tenants))
	for i, t := range tenants {
		infos[i] = infoOf(t)
	}
	return http.StatusOK, map[string]any{"corpora": infos}, nil
}

func (s *Server) handleCreate(ctx context.Context, r *http.Request) (int, any, error) {
	var cr CreateRequest
	if err := s.decode(r, &cr); err != nil {
		return 0, nil, err
	}
	// A create builds its whole corpus, so a name that cannot register is
	// refused first. AddTenant checks again: another create may take the
	// name meanwhile.
	if err := validateName(cr.Name); err != nil {
		return 0, nil, err
	}
	if _, err := s.reg.Get(cr.Name); err == nil {
		return 0, nil, fmt.Errorf("%w: %q", ErrCorpusExists, cr.Name)
	}
	t, err := CreateTenant(&cr)
	if err != nil {
		return 0, nil, err
	}
	if err := s.AddTenant(t); err != nil {
		return 0, nil, err
	}
	return http.StatusCreated, infoOf(t), nil
}

func (s *Server) handleDrop(ctx context.Context, r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	if err := s.DropTenant(name); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"dropped": name}, nil
}

func (s *Server) handleStats(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, StatsDoc{Corpus: t.Name, Stats: t.Corpus.Stats()}, nil
}

// handleSnapshotHTTP streams the corpus snapshot — the NEDSEG03 binary
// segment Snapshot/LoadCorpus speak, each row's bytes as the engine
// holds them and the backing graph included — outside the JSON
// envelope.
func (s *Server) handleSnapshotHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := func() int {
		t, err := s.reg.Get(r.PathValue("name"))
		if err != nil {
			return writeError(w, err)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.nedseg", t.Name))
		if err := t.Corpus.Snapshot(w); err != nil {
			// Headers are gone; the truncated body is the best signal left.
			return http.StatusInternalServerError
		}
		return http.StatusOK
	}()
	s.met.observe("snapshot", status, time.Since(start))
}

func (s *Server) handleKNN(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req KNNRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	nbs, err := t.Corpus.KNN(ctx, ned.NodeID(req.Node), req.L)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, QueryResponse{Corpus: t.Name, Neighbors: neighborsJSON(nbs)}, nil
}

func (s *Server) handleKNNSig(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req KNNSigRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	sig, err := req.Signature.signature()
	if err != nil {
		return 0, nil, err
	}
	nbs, err := t.Corpus.KNNSignature(ctx, sig, req.L)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, QueryResponse{Corpus: t.Name, Neighbors: neighborsJSON(nbs)}, nil
}

func (s *Server) handleRange(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req RangeRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	sig, err := req.Signature.signature()
	if err != nil {
		return 0, nil, err
	}
	nbs, err := t.Corpus.Range(ctx, sig, req.R)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, QueryResponse{Corpus: t.Name, Neighbors: neighborsJSON(nbs)}, nil
}

func (s *Server) handleNearestSet(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req NearestSetRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	sig, err := req.Signature.signature()
	if err != nil {
		return 0, nil, err
	}
	nbs, err := t.Corpus.NearestSet(ctx, sig)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, QueryResponse{Corpus: t.Name, Neighbors: neighborsJSON(nbs)}, nil
}

func (s *Server) handleBatchKNN(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req BatchKNNRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	results := make([][]NeighborJSON, 0, len(req.Nodes)+len(req.Signatures))
	// Node queries: resolve against the corpus graph. Directed corpora
	// (or corpora without a graph) can still query indexed nodes via the
	// engine's KNN path one by one.
	if len(req.Nodes) > 0 {
		if !t.Directed && t.HasGraph {
			sigs := make([]ned.Signature, len(req.Nodes))
			for i, v := range req.Nodes {
				sig, err := t.Corpus.Signature(ned.NodeID(v))
				if err != nil {
					return 0, nil, fmt.Errorf("node %d: %w", v, err)
				}
				sigs[i] = sig
			}
			batch, err := t.Corpus.BatchKNN(ctx, sigs, req.L)
			if err != nil {
				return 0, nil, err
			}
			for _, nbs := range batch {
				results = append(results, neighborsJSON(nbs))
			}
		} else {
			for _, v := range req.Nodes {
				nbs, err := t.Corpus.KNN(ctx, ned.NodeID(v), req.L)
				if err != nil {
					return 0, nil, fmt.Errorf("node %d: %w", v, err)
				}
				results = append(results, neighborsJSON(nbs))
			}
		}
	}
	if len(req.Signatures) > 0 {
		sigs := make([]ned.Signature, len(req.Signatures))
		for i := range req.Signatures {
			sig, err := req.Signatures[i].signature()
			if err != nil {
				return 0, nil, fmt.Errorf("signature %d: %w", i, err)
			}
			sigs[i] = sig
		}
		batch, err := t.Corpus.BatchKNN(ctx, sigs, req.L)
		if err != nil {
			return 0, nil, err
		}
		for _, nbs := range batch {
			results = append(results, neighborsJSON(nbs))
		}
	}
	return http.StatusOK, BatchResponse{Corpus: t.Name, Results: results}, nil
}

func (s *Server) handleInsert(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req NodesRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	nodes := make([]ned.NodeID, len(req.Nodes))
	for i, v := range req.Nodes {
		nodes[i] = ned.NodeID(v)
	}
	if err := t.Corpus.Insert(nodes...); err != nil {
		return 0, nil, err
	}
	s.maybeCheckpoint(t)
	return http.StatusOK, map[string]any{"inserted": len(nodes)}, nil
}

func (s *Server) handleRemove(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var req NodesRequest
	if err := s.decode(r, &req); err != nil {
		return 0, nil, err
	}
	nodes := make([]ned.NodeID, len(req.Nodes))
	for i, v := range req.Nodes {
		nodes[i] = ned.NodeID(v)
	}
	if err := t.Corpus.Remove(nodes...); err != nil {
		return 0, nil, err
	}
	s.maybeCheckpoint(t)
	return http.StatusOK, map[string]any{"removed": len(nodes)}, nil
}

func (s *Server) handleUpdateGraph(ctx context.Context, r *http.Request) (int, any, error) {
	t, err := s.tenant(r)
	if err != nil {
		return 0, nil, err
	}
	var gs GraphSpec
	if err := s.decode(r, &gs); err != nil {
		return 0, nil, err
	}
	g, err := gs.Build()
	if err != nil {
		return 0, nil, err
	}
	refreshed, err := t.Corpus.UpdateGraph(g)
	if err != nil {
		return 0, nil, err
	}
	s.maybeCheckpoint(t)
	return http.StatusOK, map[string]any{"refreshed": refreshed}, nil
}
