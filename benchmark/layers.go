package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"ned"
	"ned/internal/faultfs"
	"ned/internal/graph"
	"ned/internal/hungarian"
	inned "ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/serve"
	"ned/internal/ted"
	"ned/internal/tree"
	"ned/internal/vptree"
)

// Per-layer metrics: each layer's exported entry points called from
// outside, on inputs taken from the workload being traced (its corpus
// graph, its shard partition, its query sample). Medians unless the
// name says otherwise; counts are exact and repeat run to run.

// layerBench is what the layer measurements share.
type layerBench struct {
	r       *runner
	rp      *replica
	m       metricSet
	rng     *rand.Rand
	ctx     context.Context
	queries []inned.Item // the workload's query sample, profiled
	sample  []inned.Item // 512 items spread evenly over shard 0
}

const (
	smallIndex   = 512
	layerQueries = 48
)

func layerMetrics(r *runner, rp *replica, m metricSet) error {
	b := &layerBench{r: r, rp: rp, m: m, rng: rand.New(rand.NewSource(r.cfg.seed)), ctx: context.Background()}
	for _, o := range r.in.queries[:min(layerQueries, len(r.in.queries))] {
		b.queries = append(b.queries, rp.queryItem(o))
	}
	// The small index: shard 0's items from the operation pool, spread
	// evenly over its node order.
	pool := r.in.corpus.pool()
	limit := r.in.corpus.sigs[pool[len(pool)-1]].Tree.Size()
	var shard []inned.Item
	for _, it := range rp.shards[0] {
		if it.Out.Size() <= limit {
			shard = append(shard, it)
		}
	}
	n := min(smallIndex, len(shard))
	for i := 0; i < n; i++ {
		b.sample = append(b.sample, shard[i*len(shard)/n])
	}
	layers := []struct {
		name string
		run  func() error
	}{
		{"hungarian", b.hungarian}, {"ted", b.ted}, {"tree", b.tree}, {"graph", b.graph}, {"ned", b.ned},
		{"vptree", b.vptree}, {"corpus", b.corpus}, {"segment", b.segment}, {"serve", b.serve},
	}
	for _, l := range layers {
		// Each layer starts from a collected heap, so one layer's garbage
		// is not collected on the next one's clock.
		runtime.GC()
		if err := l.run(); err != nil {
			return fmt.Errorf("%s layer: %w", l.name, err)
		}
	}
	return nil
}

func (b *layerBench) hungarian() error {
	var s hungarian.Solver
	matrices := func(n, count int) [][]int64 {
		out := make([][]int64, count)
		for i := range out {
			out[i] = make([]int64, n*n)
			for j := range out[i] {
				out[i][j] = int64(b.rng.Intn(n + 1))
			}
		}
		return out
	}
	for _, c := range []struct{ n, count int }{{8, 400}, {32, 200}, {128, 24}} {
		ms := matrices(c.n, c.count)
		b.m.set(fmt.Sprintf("hungarian.solve_ns.n%d", c.n),
			quantile(timeN(c.count, func(i int) { s.Solve(ms[i], c.n) }), 0.5))
	}
	ms := matrices(32, 200)
	budgets := make([]int64, len(ms))
	for i, mat := range ms {
		total, _ := s.Solve(mat, 32)
		budgets[i] = total / 2
	}
	b.m.set("hungarian.solve_atmost_ns.n32",
		quantile(timeN(len(ms), func(i int) { s.SolveAtMost(ms[i], 32, budgets[i]) }), 0.5))
	return nil
}

func (b *layerBench) ted() error {
	c := ted.NewComputer()
	type pair struct {
		q, it  inned.Item
		budget int // the query's true l-th best distance
	}
	const perQuery = 40
	var pairs []pair
	for _, q := range b.queries {
		nbs, err := inned.FanKNN(b.ctx, b.rp.exec, b.rp.indexes, q, topL)
		if err != nil || len(nbs) == 0 {
			continue
		}
		for i := 0; i < perQuery; i++ {
			pairs = append(pairs, pair{q, b.rp.items[b.rng.Intn(len(b.rp.items))], nbs[len(nbs)-1].Dist})
		}
	}
	dist := make([]int, len(pairs))
	full := timeN(len(pairs), func(i int) { dist[i] = c.Distance(pairs[i].q.Out, pairs[i].it.Out) })
	b.m.set("ted.distance_ns_p50", quantile(full, 0.5))
	b.m.set("ted.distance_ns_p95", quantile(full, 0.95))
	exits := 0
	b.m.set("ted.atmost_ns_p50", quantile(timeN(len(pairs), func(i int) {
		if _, o := pairDistanceAtMost(c, pairs[i].q, pairs[i].it, pairs[i].budget); o != ted.OutcomeExact {
			exits++
		}
	}), 0.5))
	b.m.set("ted.early_exit_ratio", float64(exits)/float64(len(pairs)))
	bound := make([]int, len(pairs))
	b.m.set("ted.bound_ns", quantile(timeN(len(pairs), func(i int) {
		bound[i] = max(ted.PaddingBound(pairs[i].q.OutP, pairs[i].it.OutP), ted.LabelBound(pairs[i].q.OutP, pairs[i].it.OutP))
	}), 0.5))
	var tight []float64
	for i := range pairs {
		if dist[i] > 0 {
			tight = append(tight, float64(bound[i])/float64(dist[i]))
		}
	}
	b.m.set("ted.bound_tightness", mean(tight))
	return nil
}

func (b *layerBench) tree() error {
	g := b.r.in.corpus.g
	nodes := stratified(b.rng, b.r.in.corpus.pool(), 400)
	trees := make([]*tree.Tree, len(nodes))
	b.m.set("tree.kadjacent_us", quantile(timeN(len(nodes), func(i int) { trees[i], _ = tree.KAdjacent(g, nodes[i], corpusK) }), 0.5)/1e3)
	dict := tree.NewInterner()
	b.m.set("tree.profile_us", quantile(timeN(len(trees), func(i int) { dict.Profile(trees[i]) }), 0.5)/1e3)
	profiles := make([]*tree.Profile, len(b.rp.shards[0]))
	for i, it := range b.rp.shards[0] {
		profiles[i] = it.OutP
	}
	b.m.set("tree.compile_arena_ms.shard", quantile(timeN(5, func(int) { tree.CompileArena(profiles) }), 0.5)/1e6)
	enc := make([]string, len(trees))
	b.m.set("tree.encode_us", quantile(timeN(len(trees), func(i int) { enc[i] = tree.Encode(trees[i]) }), 0.5)/1e3)
	b.m.set("tree.decode_us", quantile(timeN(len(enc), func(i int) { _, _ = tree.Decode(enc[i]) }), 0.5)/1e3)
	sizes := make([]float64, len(b.rp.items))
	for i, it := range b.rp.items {
		sizes[i] = float64(it.Out.Size())
	}
	sort.Float64s(sizes)
	b.m.set("tree.nodes_p50", quantile(sizes, 0.5))
	b.m.set("tree.nodes_p95", quantile(sizes, 0.95))
	return nil
}

// updatedGraph is the corpus graph plus the workload-shaped batch of
// new edges, and those edges' endpoints.
func (b *layerBench) updatedGraph() (*graph.Graph, []graph.NodeID) {
	g := b.r.in.corpus.g
	edges := g.Edges()
	var ends []graph.NodeID
	for added := 0; added < 8; {
		u, v := graph.NodeID(b.rng.Intn(g.NumNodes())), graph.NodeID(b.rng.Intn(g.NumNodes()))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
		ends = append(ends, u, v)
		added++
	}
	return graph.FromEdges(g.NumNodes(), edges), ends
}

func (b *layerBench) graph() error {
	g := b.r.in.corpus.g
	g2, ends := b.updatedGraph()
	b.m.set("graph.edgediff_ms", quantile(timeN(5, func(int) { graph.EdgeDiff(g, g2) }), 0.5)/1e6)
	b.m.set("graph.nodeswithin_us", quantile(timeN(9, func(int) { graph.NodesWithin(g2, ends, corpusK-1, graph.Outgoing) }), 0.5)/1e3)
	return nil
}

// knnStats runs the query sample against ix and reports the median
// latency in µs and the exact TED* calls per query.
func (b *layerBench) knnStats(ix inned.Index) (float64, float64, error) {
	ix.ResetStats()
	var err error
	lat := timeN(len(b.queries), func(i int) {
		if _, e := ix.KNN(b.ctx, b.queries[i], topL); e != nil {
			err = e
		}
	})
	return quantile(lat, 0.5) / 1e3, float64(ix.DistanceCalls()) / float64(len(b.queries)), err
}

func (b *layerBench) ned() error {
	backends := []struct {
		name  string
		build func([]inned.Item) inned.DynamicIndex
	}{
		{"pruned", inned.NewPrunedLinearBackend},
		{"linear", func(items []inned.Item) inned.DynamicIndex { return inned.NewLinearBackend(items, 2) }},
		{"vp", inned.NewVPBackend},
		{"bk", inned.NewBKBackend},
	}
	for _, be := range backends {
		var ix inned.DynamicIndex
		b.m.set("ned.build_ms."+be.name+".n512", timeOnce(func() { ix = be.build(b.sample) })/1e6)
		lat, calls, err := b.knnStats(ix)
		if err != nil {
			return err
		}
		b.m.set("ned.knn_us."+be.name+".n512", lat)
		b.m.set("ned.knn_ted_calls."+be.name+".n512", calls)
	}
	shard := b.rp.shards[0]
	for _, be := range backends[:2] {
		lat, calls, err := b.knnStats(be.build(shard))
		if err != nil {
			return err
		}
		b.m.set("ned.knn_us."+be.name+".shard", lat)
		b.m.set("ned.knn_ted_calls."+be.name+".shard", calls)
	}

	// The cascade alone, and what each tier lets through.
	pruned := b.rp.indexes[0]
	b.m.set("ned.sweep_ns_per_candidate", quantile(timeN(len(b.queries), func(i int) {
		_, _ = pruned.Range(b.ctx, b.queries[i], 0)
	}), 0.5)/float64(pruned.Len()))
	if _, _, err := b.knnStats(pruned); err != nil {
		return err
	}
	c := pruned.Counters()
	ratio := func(a, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(a) / float64(n)
	}
	b.m.set("ned.size_survivor_ratio", ratio(c.BlockSizeSurvivors, c.BlockCandidates))
	b.m.set("ned.padding_survivor_ratio", ratio(c.BlockPaddingSurvivors, c.BlockCandidates))
	b.m.set("ned.label_survivor_ratio", ratio(c.BlockLabelSurvivors, c.BlockCandidates))
	b.m.set("ned.early_exit_ratio", ratio(c.EarlyExits, c.DistanceCalls))

	// The same items split 1, 2 and 4 ways through the fan-out.
	for _, ways := range []int{1, 2, 4} {
		var indexes []inned.Index
		for _, items := range splitItems(b.rp.items, ways) {
			indexes = append(indexes, inned.NewPrunedLinearBackend(items))
		}
		b.m.set(fmt.Sprintf("ned.fanknn_us.s%d", ways), quantile(timeN(len(b.queries), func(i int) {
			_, _ = inned.FanKNN(b.ctx, b.rp.exec, indexes, b.queries[i], topL)
		}), 0.5)/1e3)
		var calls int64
		for _, ix := range indexes {
			calls += ix.DistanceCalls()
		}
		b.m.set(fmt.Sprintf("ned.fanknn_ted_calls.s%d", ways), float64(calls)/float64(len(b.queries)))
	}
	per := make([][]inned.Neighbor, len(b.rp.indexes))
	for si, ix := range b.rp.indexes {
		per[si], _ = ix.KNN(b.ctx, b.queries[0], topL)
	}
	b.m.set("ned.mergetopl_ns", quantile(timeN(400, func(int) { inned.MergeTopL(per, topL) }), 0.5))
	b.m.set("ned.plan_build_ns", quantile(timeN(400, func(int) { inned.BuildPlan(planInput(b.rp.indexes)) }), 0.5))

	// One mutation of a shard index, as the corpus performs it: clone
	// the published epoch, then change the clone.
	ix := inned.NewPrunedLinearBackend(shard)
	var clone inned.DynamicIndex
	b.m.set("ned.clone_ms.pruned.shard", quantile(timeN(9, func(int) { clone = ix.Clone() }), 0.5)/1e6)
	victims := b.sample[:min(24, len(b.sample))]
	b.m.set("ned.remove_us.pruned.shard", quantile(timeN(len(victims), func(i int) { clone.Remove(victims[i].Node) }), 0.5)/1e3)
	b.m.set("ned.insert_us.pruned.shard", quantile(timeN(len(victims), func(i int) { clone.Insert(victims[i]) }), 0.5)/1e3)
	return nil
}

func (b *layerBench) vptree() error {
	// The bare tree under the exact metric, no budget: what the VP
	// structure alone costs in metric evaluations.
	calls := 0
	t := vptree.New(b.sample, func(x, y inned.Item) float64 {
		calls++
		return float64(inned.ItemDistance(x, y))
	})
	b.m.set("vptree.build_dist_calls.n512", float64(calls))
	calls = 0
	for _, q := range b.queries {
		t.KNN(q, topL)
	}
	b.m.set("vptree.knn_dist_calls.n512", float64(calls)/float64(len(b.queries)))
	return nil
}

// firstError keeps the first error of a run of timed calls.
type firstError struct{ err error }

func (f *firstError) keep(e error) {
	if e != nil && f.err == nil {
		f.err = e
	}
}

func (b *layerBench) corpus() error {
	for _, part := range []func() error{b.corpusQueries, b.corpusMutations, b.corpusDurable} {
		if err := part(); err != nil {
			return err
		}
	}
	return nil
}

func (b *layerBench) corpusQueries() error {
	c, in := b.rp.corpus, b.r.in
	queries := in.queries[:min(layerQueries, len(in.queries))]
	sigs := make([]ned.Signature, len(queries))
	for i, o := range queries {
		sigs[i] = o.sig
	}
	var fe firstError
	keep := fe.keep
	before := c.Stats()
	knn := timeN(len(queries), func(i int) { _, e := c.KNN(b.ctx, queries[i].node, topL); keep(e) })
	after := c.Stats()
	n := float64(len(queries))
	b.m.set("corpus.knn_us_p50", quantile(knn, 0.5)/1e3)
	b.m.set("corpus.knn_us_p95", quantile(knn, 0.95)/1e3)
	b.m.set("corpus.ted_calls_per_query", float64(after.DistanceCalls-before.DistanceCalls)/n)
	b.m.set("corpus.block_candidates_per_query", float64(after.BlockCandidates-before.BlockCandidates)/n)
	b.m.set("corpus.plan_scans_per_query", float64(after.PlanScans-before.PlanScans)/n)
	knnsig := timeN(len(sigs), func(i int) { _, e := c.KNNSignature(b.ctx, sigs[i], topL); keep(e) })
	b.m.set("corpus.knnsig_us_p50", quantile(knnsig, 0.5)/1e3)
	b.m.set("corpus.knnsig_us_p95", quantile(knnsig, 0.95)/1e3)
	const batch = 16
	if len(sigs) >= batch {
		batches := len(sigs) / batch
		b.m.set("corpus.batchknn_us_per_sig", quantile(timeN(batches, func(i int) {
			_, e := c.BatchKNN(b.ctx, sigs[i*batch:(i+1)*batch], topL)
			keep(e)
		}), 0.5)/1e3/batch)
	} else {
		b.m.set("corpus.batchknn_us_per_sig", 0) // smoke-test scale: no full batch
	}
	b.m.set("corpus.range_us_p50", quantile(timeN(len(sigs), func(i int) { _, e := c.Range(b.ctx, sigs[i], 2); keep(e) }), 0.5)/1e3)
	return fe.err
}

func (b *layerBench) corpusMutations() error {
	c, in := b.rp.corpus, b.r.in
	var fe firstError
	keep := fe.keep
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	before := c.Stats()
	b.m.set("corpus.remove_us_p50", quantile(timeN(len(in.pairs), func(i int) { keep(c.Remove(in.pairs[i])) }), 0.5)/1e3)
	b.m.set("corpus.insert_us_p50", quantile(timeN(len(in.pairs), func(i int) { keep(c.Insert(in.pairs[i])) }), 0.5)/1e3)
	after := c.Stats()
	muts := float64(sum(after.ShardMutations) - sum(before.ShardMutations))
	b.m.set("corpus.lock_wait_us_per_mut", float64(sum(after.ShardLockWaitNS)-sum(before.ShardLockWaitNS))/1e3/muts)
	b.m.set("corpus.clone_bytes_per_mut", float64(sum(after.ShardCloneBytes)-sum(before.ShardCloneBytes))/muts)

	g2, _ := b.updatedGraph()
	var refreshed int
	b.m.set("corpus.updategraph_ms", timeOnce(func() { var e error; refreshed, e = c.UpdateGraph(g2); keep(e) })/1e6)
	b.m.set("corpus.updategraph_refreshed", float64(refreshed))
	_, e := c.UpdateGraph(in.corpus.g)
	keep(e)
	return fe.err
}

// corpusDurable makes the replica's corpus durable, mutates it,
// checkpoints it and reopens it, all through the counting filesystem.
func (b *layerBench) corpusDurable() error {
	c, in := b.rp.corpus, b.r.in
	var fe firstError
	keep := fe.keep
	cfs := newCountingFS()
	restore := faultfs.Install(cfs)
	defer restore()
	dir, err := b.r.scratch("trace-durable")
	if err != nil {
		return err
	}
	b.m.set("corpus.makedurable_ms", timeOnce(func() { keep(c.MakeDurable(dir, ned.FsyncAlways)) })/1e6)
	if fe.err != nil {
		return fe.err
	}
	walSyncs0 := cfs.wal.syncs.Load()
	commits := 0
	for _, v := range in.pairs {
		keep(c.Remove(v))
		keep(c.Insert(v))
		commits += 2
	}
	b.m.set("segment.fsyncs_per_commit", float64(cfs.wal.syncs.Load()-walSyncs0)/float64(commits))
	syncs0, writes0 := cfs.allSyncs(), cfs.checkpoint.writes.Load()
	b.m.set("corpus.checkpoint_ms", timeOnce(func() { keep(c.Checkpoint()) })/1e6)
	b.m.set("segment.fsyncs_per_checkpoint", float64(cfs.allSyncs()-syncs0))
	b.m.set("segment.write_calls_per_checkpoint", float64(cfs.checkpoint.writes.Load()-writes0))
	ckpt, e := dirBytes(dir, "checkpoint-")
	keep(e)
	b.m.set("corpus.checkpoint_bytes", float64(ckpt))
	keep(c.CloseDurable())
	if fe.err != nil {
		return fe.err
	}
	var reopened *ned.Corpus
	b.m.set("corpus.opendurable_ms", timeOnce(func() { reopened, e = ned.OpenDurable(dir, ned.FsyncAlways); keep(e) })/1e6)
	if fe.err != nil {
		return fe.err
	}
	b.m.set("corpus.first_query_after_open_ms", timeOnce(func() { _, e := reopened.KNN(b.ctx, in.queries[0].node, topL); keep(e) })/1e6)
	keep(reopened.CloseDurable())
	return fe.err
}

func (b *layerBench) segment() error {
	rp := b.rp
	meta := segment.Meta{Backend: "pruned", K: corpusK}
	var buf bytes.Buffer
	var err error
	b.m.set("segment.write_ms", quantile(timeN(3, func(int) {
		buf.Reset()
		if e := segment.Write(&buf, meta, rp.dict, b.r.in.corpus.g, rp.shards, nil); e != nil {
			err = e
		}
	}), 0.5)/1e6)
	if err != nil {
		return err
	}
	b.m.set("segment.bytes_per_node", float64(buf.Len())/float64(len(rp.items)))
	b.m.set("segment.read_ms", quantile(timeN(3, func(int) {
		if _, _, _, _, _, e := segment.Read(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	}), 0.5)/1e6)
	b.m.set("segment.verify_ms", quantile(timeN(3, func(int) {
		if e := segment.Verify(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	}), 0.5)/1e6)
	if err != nil {
		return err
	}

	// The log: one upsert record per commit, items drawn like the
	// workload's mutation nodes.
	dir, err := b.r.scratch("trace-segment")
	if err != nil {
		return err
	}
	records := make([]segment.Record, 0, 64)
	for _, v := range stratified(b.rng, b.r.in.corpus.pool(), 64) {
		records = append(records, segment.Record{Upserts: []inned.Item{rp.items[v]}})
	}
	commitAll := func(seq int64, policy segment.FsyncPolicy) (*segment.WAL, []float64, error) {
		w, err := segment.CreateWAL(segment.WALPath(dir, seq), policy)
		if err != nil {
			return nil, nil, err
		}
		lat := timeN(len(records), func(i int) {
			if e := w.Commit(records[i], nil); e != nil {
				err = e
			}
		})
		return w, lat, err
	}
	w, always, err := commitAll(0, segment.FsyncAlways)
	if err != nil {
		return err
	}
	b.m.set("segment.wal_commit_us_p50.always", quantile(always, 0.5)/1e3)
	b.m.set("segment.wal_commit_us_p95.always", quantile(always, 0.95)/1e3)
	n, bytesWritten := w.Stats()
	b.m.set("segment.wal_bytes_per_record", float64(bytesWritten)/float64(n))
	if err := w.Close(); err != nil {
		return err
	}
	b.m.set("segment.wal_replay_us_per_record", quantile(timeN(3, func(int) {
		if _, _, e := segment.ReplayWAL(segment.WALPath(dir, 0)); e != nil {
			err = e
		}
	}), 0.5)/1e3/float64(n))
	w, none, err2 := commitAll(1, segment.FsyncNone)
	if err2 != nil {
		return err2
	}
	b.m.set("segment.wal_commit_us_p50.none", quantile(none, 0.5)/1e3)
	if e := w.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

func (b *layerBench) serve() error {
	in := b.r.in
	var knnOps, sigOps []*op
	var sigBytes float64
	for _, o := range in.queries[:min(layerQueries, len(in.queries))] {
		knnOps = append(knnOps, knnOp(in.corpus.sigs[o.node]))
		so := knnSigOp(o.sig, o.node)
		sigOps = append(sigOps, so)
		sigBytes += float64(len(so.body))
	}
	b.m.set("serve.decode_us.knn", quantile(timeN(len(knnOps), func(i int) { decodeQuery(knnOps[i]) }), 0.5)/1e3)
	b.m.set("serve.decode_us.knnsig", quantile(timeN(len(sigOps), func(i int) { decodeQuery(sigOps[i]) }), 0.5)/1e3)
	b.m.set("serve.req_bytes.knnsig", sigBytes/float64(len(sigOps)))
	resp := serve.QueryResponse{Corpus: tenantName, Neighbors: in.oracle[0].want}
	size := 0
	b.m.set("serve.encode_us.query", quantile(timeN(200, func(int) { size = encodeResponse(resp) }), 0.5)/1e3)
	b.m.set("serve.resp_bytes", float64(size))
	return nil
}
