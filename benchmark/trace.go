package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ned"
	"ned/internal/graph"
	inned "ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/serve"
	"ned/internal/ted"
	"ned/internal/tree"
)

// The traced run. This change may not instrument the program, so spans
// come from layered replay: for one request the harness times the
// socket round trip, then the same bytes through serve.Server.Handler()
// in process, then the same query through Corpus.KNN / KNNSignature,
// then through ned.FanKNN over shard indexes it built from the same
// items, then each shard's Index.KNN, then the cascade sweep and the
// budgeted TED* calls of that shard — each level a child span of the
// one above. A child is a separate execution of the work its parent
// contains, so its span is laid inside the parent's interval (siblings
// back to back from the parent's start) rather than at the instant it
// really ran; self time is a span's duration minus its children's.

// span is one line of benchmark/out/trace-<workload>.jsonl.
type span struct {
	Trace  int    `json:"trace"`  // one per traced request
	Span   int    `json:"span"`   // unique within the file
	Parent int    `json:"parent"` // 0 for a request's root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// root records a request's real round trip.
func (t *tracer) root(trace int, layer, name string, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{trace, len(t.spans) + 1, 0, layer, name, s, s + d.Nanoseconds()})
	return len(t.spans)
}

// child lays a replayed span of duration d inside parent, after the
// parent's earlier children.
func (t *tracer) child(parent int, layer, name string, d time.Duration) int {
	p := t.spans[parent-1]
	at := p.Start
	for _, s := range t.spans[parent:] {
		if s.Parent == parent {
			at = s.End
		}
	}
	t.spans = append(t.spans, span{p.Trace, len(t.spans) + 1, parent, layer, name, at, at + d.Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coverage is how much of the named spans' total duration their
// children account for.
func (t *tracer) coverage(name string) float64 {
	var parent, kids int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		parent += s.End - s.Start
		for _, c := range t.spans[s.Span:] {
			if c.Parent == s.Span {
				kids += c.End - c.Start
			}
		}
	}
	if parent == 0 {
		return 0
	}
	return float64(kids) / float64(parent)
}

// replica is the in-process copy of what the daemon serves: the same
// graph under the same engine options behind the same handler, plus
// the shard indexes rebuilt from the same items for the levels below
// Corpus.
type replica struct {
	corpus    *ned.Corpus
	coalesced http.Handler // serve defaults: 2 ms coalescing window
	direct    http.Handler // coalescing off
	dict      *tree.Interner
	items     []inned.Item   // by node, profiled against dict
	shards    [][]inned.Item // the engine's 2-way hash partition
	indexes   []inned.Index  // pruned backend per shard
	exec      *inned.Executor
	buildMS   float64
}

func newCorpus(g *graph.Graph) (*ned.Corpus, error) {
	return ned.NewCorpus(g, corpusK, ned.WithBackend(ned.BackendPrunedLinear), ned.WithShards(2), ned.WithWorkers(2))
}

func newReplica(g *graph.Graph) (*replica, error) {
	t0 := time.Now()
	c, err := newCorpus(g)
	if err != nil {
		return nil, err
	}
	c.Rebuild()
	rp := &replica{corpus: c, buildMS: ms(time.Since(t0)), dict: tree.NewInterner(), exec: inned.NewExecutor(2)}
	for _, window := range []time.Duration{0, -1} {
		srv := serve.New(serve.Options{CoalesceWindow: window})
		if err := srv.AddTenant(&serve.Tenant{Name: tenantName, Corpus: c, K: corpusK, HasGraph: true}); err != nil {
			return nil, err
		}
		if window == 0 {
			rp.coalesced = srv.Handler()
		} else {
			rp.direct = srv.Handler()
		}
	}
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	rp.items = inned.BuildItems(g, nodes, corpusK, false, 2)
	inned.ProfileItems(rp.items, rp.dict, 2)
	rp.shards = splitItems(rp.items, 2)
	for _, items := range rp.shards {
		rp.indexes = append(rp.indexes, inned.NewPrunedLinearBackend(items))
	}
	return rp, nil
}

// splitItems partitions items the way the engine seeds its shards.
func splitItems(items []inned.Item, n int) [][]inned.Item {
	out := make([][]inned.Item, n)
	for _, it := range items {
		s := inned.ShardOf(it.Node, n)
		out[s] = append(out[s], it)
	}
	return out
}

// handle runs one request through a handler in process and times it.
func handle(h http.Handler, o *op) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("replica answered %s with status %d: %s", o.path, rec.Code, rec.Body)
	}
	return d, nil
}

// queryItem is the engine-level form of a query op.
func (rp *replica) queryItem(o *op) inned.Item {
	if o.kind == opKNN {
		return rp.items[o.node]
	}
	it := o.sig.Item()
	inned.ProfileQueryItem(&it, rp.dict)
	return it
}

// pairDistanceAtMost is the verify stage's call: canonical orientation
// from the profiles, then the profiled budgeted TED*.
func pairDistanceAtMost(c *ted.Computer, q, it inned.Item, budget int) (int, ted.Outcome) {
	t1, t2, p1, p2 := q.Out, it.Out, q.OutP, it.OutP
	if p1.Canon == p2.Canon {
		return 0, ted.OutcomeExact
	}
	swap := p1.Size > p2.Size
	if p1.Size == p2.Size {
		swap = len(p1.Levels) > len(p2.Levels)
		if len(p1.Levels) == len(p2.Levels) {
			swap = tree.Canonical(t1) > tree.Canonical(t2)
		}
	}
	if swap {
		t1, t2, p1, p2 = t2, t1, p2, p1
	}
	return c.DistanceAtMostProfiled(t1, t2, p1, p2, budget)
}

// lowerBound is the cascade's strongest bound, from the exported
// scalar forms.
func lowerBound(q, it inned.Item) int {
	return max(ted.SizeBound(q.OutP, it.OutP), ted.PaddingBound(q.OutP, it.OutP), ted.LabelBound(q.OutP, it.OutP))
}

// traceSample is how many requests of the workload the traced run
// replays layer by layer.
const traceSample = 300

// traced is the traced run of a workload: the layered replay of a
// request sample, written out as spans, and the per-layer metrics.
func (r *runner) traced(out *outcome) error {
	m := out.Metrics
	rp, err := newReplica(r.in.corpus.g)
	if err != nil {
		return err
	}
	m.set("corpus.build_ms", rp.buildMS)
	for _, c := range r.conns {
		c.stable = false // the daemon restarted with some pairs removed
	}
	tr := &tracer{t0: time.Now()}
	ops := r.in.queries[:min(traceSample, len(r.in.queries))]
	endpoint := "knn"
	if ops[0].kind == opKNNSig {
		endpoint = "knnsig"
	}

	var rtt, handler, socket, wait []float64
	for i, o := range ops {
		if r.ctx.Err() != nil {
			return fmt.Errorf("aborted at the %s wall cap", workloadCap)
		}
		// Level 0: the socket round trip, as it really happened.
		start := time.Now()
		lat, v := r.conns[0].do(o, nil)
		if v != vOK {
			continue
		}
		root := tr.root(i+1, "client", "client.request."+endpoint, start, lat)
		withWindow, direct, err := rp.replayQuery(tr, root, endpoint, o)
		if err != nil {
			return err
		}
		rtt = append(rtt, ms(lat))
		handler = append(handler, us(direct))
		socket = append(socket, us(lat-withWindow))
		wait = append(wait, us(withWindow-direct))
	}
	if len(rtt) == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	// Mutations, for the workloads that are about them.
	if r.wl == wlMixed || r.wl == wlRecover {
		if err := r.traceMutations(tr, rp, len(ops)); err != nil {
			return err
		}
	}

	other := map[string]string{"knn": "knnsig", "knnsig": "knn"}[endpoint]
	otherP50, err := rp.handlerP50(r.in, other)
	if err != nil {
		return err
	}
	m.set("serve.handler_us_p50."+endpoint, median(handler))
	m.set("serve.handler_us_p50."+other, otherP50)
	m.set("serve.coalesce_wait_us_p50", median(wait))
	m.set("nedserve.socket_us_p50", median(socket))
	untraced := m["query_p50_ms"].Value
	m.set("client.trace_overhead_pct", 100*(median(rtt)-untraced)/untraced)

	if err := tr.write(filepath.Join(r.cfg.outDir, "trace-"+r.wl+".jsonl")); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans; children cover %.0f%% of corpus.%s, %.0f%% of serve.handler.%s\n",
		r.wl, len(tr.spans), 100*tr.coverage("corpus."+endpoint), endpoint,
		100*tr.coverage("serve.handler."+endpoint), endpoint)
	return layerMetrics(r, rp, m)
}

// replayQuery replays one query below its socket span, level by level,
// and returns the in-process handler's time with the daemon's default
// coalescing window and with the window off.
func (rp *replica) replayQuery(tr *tracer, root int, endpoint string, o *op) (withWindow, direct time.Duration, err error) {
	ctx := context.Background()
	// Level 1: the same bytes through the handler.
	if withWindow, err = handle(rp.coalesced, o); err != nil {
		return 0, 0, err
	}
	if direct, err = handle(rp.direct, o); err != nil {
		return 0, 0, err
	}
	hs := tr.child(root, "serve", "serve.handler."+endpoint, withWindow)
	tr.child(hs, "serve", "serve.coalesce_wait", max(withWindow-direct, 0))
	t0 := time.Now()
	decodeQuery(o)
	tr.child(hs, "serve", "serve.decode", time.Since(t0))

	// Level 2: the same query through the Corpus.
	var nbs []ned.Neighbor
	t0 = time.Now()
	if o.kind == opKNN {
		nbs, err = rp.corpus.KNN(ctx, o.node, topL)
	} else {
		nbs, err = rp.corpus.KNNSignature(ctx, o.sig, topL)
	}
	if err != nil {
		return 0, 0, err
	}
	cs := tr.child(hs, "corpus", "corpus."+endpoint, time.Since(t0))
	resp := serve.QueryResponse{Corpus: tenantName, Neighbors: make([]serve.NeighborJSON, len(nbs))}
	for j, nb := range nbs {
		resp.Neighbors[j] = serve.NeighborJSON{Node: int(nb.Node), Dist: nb.Dist}
	}
	t0 = time.Now()
	encodeResponse(resp)
	tr.child(hs, "serve", "serve.encode", time.Since(t0))

	// Level 3: query profile, plan, and the fan-out over shard indexes
	// rebuilt from the same items.
	t0 = time.Now()
	q := rp.queryItem(o)
	if o.kind == opKNNSig {
		tr.child(cs, "tree", "tree.profile_query", time.Since(t0))
	}
	t0 = time.Now()
	inned.BuildPlan(planInput(rp.indexes))
	tr.child(cs, "ned", "ned.plan", time.Since(t0))
	t0 = time.Now()
	if _, err := inned.FanKNN(ctx, rp.exec, rp.indexes, q, topL); err != nil {
		return 0, 0, err
	}
	fs := tr.child(cs, "ned", "ned.fanknn", time.Since(t0))

	// Level 4: each shard on its own (the fan-out runs them side by
	// side, so their sum may exceed the parent), then the merge.
	comp := ted.NewComputer()
	per := make([][]inned.Neighbor, len(rp.indexes))
	for si, ix := range rp.indexes {
		t0 = time.Now()
		if per[si], err = ix.KNN(ctx, q, topL); err != nil {
			return 0, 0, err
		}
		is := tr.child(fs, "ned", fmt.Sprintf("ned.index.knn.shard%d", si), time.Since(t0))

		// Level 5: the cascade sweep (a radius-0 range runs the block
		// kernels over every slot and verifies next to nothing), then
		// the budgeted TED* calls on the candidates the shard's final
		// threshold cannot prune.
		t0 = time.Now()
		if _, err := ix.Range(ctx, q, 0); err != nil {
			return 0, 0, err
		}
		tr.child(is, "ned", "ned.sweep", time.Since(t0))
		if len(per[si]) == 0 {
			continue
		}
		thr := per[si][len(per[si])-1].Dist
		var survivors []inned.Item
		for _, it := range rp.shards[si] {
			if lowerBound(q, it) <= thr {
				survivors = append(survivors, it)
			}
		}
		t0 = time.Now()
		for _, it := range survivors {
			pairDistanceAtMost(comp, q, it, thr)
		}
		tr.child(is, "ted", "ted.verify", time.Since(t0))
	}
	t0 = time.Now()
	inned.MergeTopL(per, topL)
	tr.child(fs, "ned", "ned.mergetopl", time.Since(t0))
	return withWindow, direct, nil
}

// decodeQuery does what the handler does to a query body: the JSON
// envelope, and for knnsig the signature's tree.
func decodeQuery(o *op) {
	if o.kind == opKNN {
		var req serve.KNNRequest
		_ = json.Unmarshal(o.body, &req) // the harness encoded it
		return
	}
	var req serve.KNNSigRequest
	_ = json.Unmarshal(o.body, &req)
	_, _ = tree.Decode(req.Signature.Tree)
}

// handlerP50 is the direct handler's median over the endpoint the
// workload itself does not use, on the same query nodes.
func (rp *replica) handlerP50(in *inputs, endpoint string) (float64, error) {
	var xs []float64
	for _, o := range in.queries[:min(64, len(in.queries))] {
		alt := knnOp(in.corpus.sigs[o.node])
		if endpoint == "knnsig" {
			alt = knnSigOp(in.corpus.sigs[o.node], o.node)
		}
		d, err := handle(rp.direct, alt)
		if err != nil {
			return 0, err
		}
		xs = append(xs, us(d))
	}
	return median(xs), nil
}

func planInput(indexes []inned.Index) inned.PlanInput {
	in := inned.PlanInput{Workers: 2, L: topL}
	for _, ix := range indexes {
		in.Shards = append(in.Shards, inned.PlanShard{Ix: ix, N: ix.Len()})
	}
	return in
}

func encodeResponse(v any) int {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // as serve.writeJSON does
	_ = enc.Encode(v)
	return buf.Len()
}

// traceMutations replays remove/insert pairs layer by layer: the round
// trip against the daemon, Corpus.Remove / Insert on the replica, and
// below them the index clone, the index mutation, and the fsynced log
// commit a durable tenant adds.
func (r *runner) traceMutations(tr *tracer, rp *replica, firstTrace int) error {
	dir, err := r.scratch("trace-wal")
	if err != nil {
		return err
	}
	wal, err := segment.CreateWAL(segment.WALPath(dir, 0), segment.FsyncAlways)
	if err != nil {
		return err
	}
	defer wal.Close()
	trace := firstTrace
	for _, v := range r.in.pairs[len(r.in.pairs)/2:] { // the half still indexed
		for _, kind := range []opKind{opRemove, opInsert} {
			trace++
			o := mutOp(kind, v)
			start := time.Now()
			lat, verdict := r.conns[0].do(o, nil)
			if verdict != vOK {
				continue
			}
			r.model.ack(o)
			name := map[opKind]string{opRemove: "remove", opInsert: "insert"}[kind]
			root := tr.root(trace, "client", "client.request."+name, start, lat)

			t0 := time.Now()
			if kind == opRemove {
				err = rp.corpus.Remove(v)
			} else {
				err = rp.corpus.Insert(v)
			}
			if err != nil {
				return err
			}
			cs := tr.child(root, "corpus", "corpus."+name, time.Since(t0))

			si := inned.ShardOf(v, len(rp.indexes))
			t0 = time.Now()
			clone := rp.indexes[si].(inned.DynamicIndex).Clone()
			tr.child(cs, "ned", "ned.clone", time.Since(t0))
			t0 = time.Now()
			rec := segment.Record{Deletes: []graph.NodeID{v}}
			if kind == opRemove {
				clone.Remove(v)
			} else {
				clone.Remove(v) // the shard index holds v; make room, untimed
				t0 = time.Now()
				clone.Insert(rp.items[v])
				rec = segment.Record{Upserts: []inned.Item{rp.items[v]}}
			}
			tr.child(cs, "ned", "ned."+name, time.Since(t0))
			t0 = time.Now()
			if err := wal.Commit(rec, nil); err != nil {
				return err
			}
			tr.child(cs, "segment", "segment.wal_commit", time.Since(t0))
		}
	}
	return nil
}
