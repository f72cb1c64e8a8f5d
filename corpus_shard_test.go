package ned

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// This file is the sharded-equivalence suite: whatever the shard count,
// the engine must answer node-identically to the single-index engine —
// statically, under churn, and across snapshot round-trips — on every
// backend. It also pins the concurrency contracts the sharding exists
// for: Stats/ResetStats racing mutations, and queries proceeding while
// other shards rebuild.

// shardCorpora builds one corpus per shard count over the same nodes.
func shardCorpora(t *testing.T, g *Graph, k int, b Backend, shardCounts []int, extra ...CorpusOption) map[int]*Corpus {
	t.Helper()
	out := make(map[int]*Corpus, len(shardCounts))
	for _, n := range shardCounts {
		opts := append([]CorpusOption{WithBackend(b), WithShards(n)}, extra...)
		c, err := NewCorpus(g, k, opts...)
		if err != nil {
			t.Fatalf("NewCorpus(%v, shards=%d): %v", b, n, err)
		}
		out[n] = c
	}
	return out
}

// assertShardEquivalence runs a query battery against every corpus and
// requires node-identical answers to the shards=1 reference.
func assertShardEquivalence(t *testing.T, label string, corpora map[int]*Corpus, gq *Graph, k, rounds int, seed int64) {
	t.Helper()
	ctx := context.Background()
	ref := corpora[1]
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < rounds; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		l := 1 + rng.Intn(10)
		r := rng.Intn(5)
		wantKNN, err := ref.KNNSignature(ctx, sig, l)
		if err != nil {
			t.Fatalf("%s: reference KNN: %v", label, err)
		}
		wantRange, err := ref.Range(ctx, sig, r)
		if err != nil {
			t.Fatalf("%s: reference Range: %v", label, err)
		}
		wantNearest, err := ref.NearestSet(ctx, sig)
		if err != nil {
			t.Fatalf("%s: reference NearestSet: %v", label, err)
		}
		for n, c := range corpora {
			if n == 1 {
				continue
			}
			got, err := c.KNNSignature(ctx, sig, l)
			if err != nil {
				t.Fatalf("%s shards=%d: KNN: %v", label, n, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(wantKNN) {
				t.Errorf("%s query %d shards=%d: KNN %v, shards=1 %v", label, q, n, got, wantKNN)
			}
			gotRange, err := c.Range(ctx, sig, r)
			if err != nil {
				t.Fatalf("%s shards=%d: Range: %v", label, n, err)
			}
			if fmt.Sprint(gotRange) != fmt.Sprint(wantRange) {
				t.Errorf("%s query %d shards=%d: Range %v, shards=1 %v", label, q, n, gotRange, wantRange)
			}
			gotNearest, err := c.NearestSet(ctx, sig)
			if err != nil {
				t.Fatalf("%s shards=%d: NearestSet: %v", label, n, err)
			}
			if fmt.Sprint(gotNearest) != fmt.Sprint(wantNearest) {
				t.Errorf("%s query %d shards=%d: NearestSet %v, shards=1 %v", label, q, n, gotNearest, wantNearest)
			}
		}
	}
}

// TestCorpusShardedEquivalence: KNN/Range/NearestSet answers are
// node-identical between WithShards(1) and WithShards(4) across all
// four backends — statically, after churn batches (where the amortized
// per-shard rebuild path fires), and after snapshot round-trips into
// different shard counts.
func TestCorpusShardedEquivalence(t *testing.T) {
	const k = 2
	shardCounts := []int{1, 4}
	gCorpus := randomGraph(80, 170, 930)
	gQuery := randomGraph(50, 100, 931)

	for _, b := range allBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			corpora := shardCorpora(t, gCorpus, k, b, shardCounts, WithRebuildThreshold(0.3))
			assertShardEquivalence(t, "static", corpora, gQuery, k, 6, 932)

			// Churn: identical mutation batches on every corpus, queried
			// after each round.
			rng := rand.New(rand.NewSource(933))
			live := map[NodeID]bool{}
			for v := 0; v < gCorpus.NumNodes(); v++ {
				live[NodeID(v)] = true
			}
			for round := 0; round < 4; round++ {
				var rm []NodeID
				for _, v := range rng.Perm(gCorpus.NumNodes())[:8] {
					if live[NodeID(v)] {
						rm = append(rm, NodeID(v))
						delete(live, NodeID(v))
					}
				}
				var add []NodeID
				for v := 0; v < gCorpus.NumNodes() && len(add) < 4; v++ {
					if !live[NodeID(v)] && rng.Intn(3) == 0 {
						add = append(add, NodeID(v))
						live[NodeID(v)] = true
					}
				}
				for _, c := range corpora {
					if err := c.Remove(rm...); err != nil {
						t.Fatalf("round %d: Remove: %v", round, err)
					}
					if err := c.Insert(add...); err != nil {
						t.Fatalf("round %d: Insert: %v", round, err)
					}
				}
				assertShardEquivalence(t, fmt.Sprintf("churn round %d", round), corpora, gQuery, k, 3, 934+int64(round))
			}

			// Snapshot round-trip: the churned sharded corpus reloaded into
			// 1, 3, and its own shard count must keep answering identically.
			var buf bytes.Buffer
			if err := corpora[4].Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			reloaded := map[int]*Corpus{}
			for _, n := range []int{1, 3, 4} {
				c, err := LoadCorpus(bytes.NewReader(buf.Bytes()), WithShards(n))
				if err != nil {
					t.Fatalf("LoadCorpus(shards=%d): %v", n, err)
				}
				if s := c.Stats(); s.Shards != n || s.Nodes != len(live) {
					t.Fatalf("reloaded shards=%d: stats %+v, want %d nodes", n, s, len(live))
				}
				reloaded[n] = c
			}
			assertShardEquivalence(t, "reloaded", reloaded, gQuery, k, 4, 939)
		})
	}
}

// TestCorpusShardedCascadeEquivalence covers the filter–verify cascade
// end to end: the corpus path (profiled items, precompiled query
// profiles, best-first evaluation, tier pruning) must answer
// node-identically to the cascade-free ground truth — an exhaustive
// unbudgeted TopL over raw signatures — on every backend, at shard
// counts 1 and 4, and the per-tier prune counters must aggregate
// consistently across the shards.
func TestCorpusShardedCascadeEquivalence(t *testing.T) {
	ctx := context.Background()
	const k = 2
	gCorpus := randomGraph(90, 200, 950)
	gQuery := randomGraph(40, 90, 951)
	var nodes []NodeID
	for v := 0; v < gCorpus.NumNodes(); v++ {
		nodes = append(nodes, NodeID(v))
	}
	cands := Signatures(gCorpus, nodes, k)

	for _, b := range allBackends {
		for _, shards := range []int{1, 4} {
			c, err := NewCorpus(gCorpus, k, WithBackend(b), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 6; q++ {
				sig := NewSignature(gQuery, NodeID(q*5), k)
				want := TopL(sig, cands, 7)
				got, err := c.KNNSignature(ctx, sig, 7)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%v shards=%d query %d: cascade KNN %v, exhaustive TopL %v",
						b, shards, q, got, want)
				}
			}
			s := c.Stats()
			if s.LowerBoundPrunes != s.SizePrunes+s.PaddingPrunes+s.LabelPrunes {
				t.Errorf("%v shards=%d: LowerBoundPrunes %d != size %d + padding %d + label %d",
					b, shards, s.LowerBoundPrunes, s.SizePrunes, s.PaddingPrunes, s.LabelPrunes)
			}
			c.ResetStats()
			if s := c.Stats(); s.SizePrunes != 0 || s.PaddingPrunes != 0 || s.LabelPrunes != 0 {
				t.Errorf("%v shards=%d: ResetStats left tier counters %d/%d/%d",
					b, shards, s.SizePrunes, s.PaddingPrunes, s.LabelPrunes)
			}
		}
	}

	// Regression (first-query profiling order): the very first query of
	// a lazily built corpus must be profiled AFTER the build interns the
	// corpus shapes — profiled before, its label multisets would count
	// every shared shape as a mismatch and the label tier would prune
	// true neighbors. Fresh corpus per query, l=1 keeps the threshold
	// tight enough to expose any invalid bound.
	for q := 0; q < 4; q++ {
		sig := NewSignature(gQuery, NodeID(q*7), k)
		want := TopL(sig, cands, 1)
		for _, b := range allBackends {
			first, err := NewCorpus(gCorpus, k, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			got, err := first.KNNSignature(ctx, sig, 1)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v first-ever query %d: %v, exhaustive %v", b, q, got, want)
			}
		}
	}

	// The scan backends precompile every candidate's bounds, so a
	// small-l query over a 90-node corpus must show tier pruning at work
	// (the metric trees may legitimately prune structurally instead).
	c, err := NewCorpus(gCorpus, k, WithBackend(BackendPrunedLinear), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		if _, err := c.KNNSignature(ctx, NewSignature(gQuery, NodeID(q), k), 2); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.LowerBoundPrunes == 0 {
		t.Errorf("pruned backend: no cascade prunes across %d queries (stats %+v)", 6, s)
	}
}

// TestCorpusShardedBlockKernels extends the sharded-equivalence suite
// to the columnar block path: on every backend at shards 1 and 4, KNN
// and Range answers must agree node-identically across shard counts —
// and the BlockCandidates counter must prove the scan backends actually
// swept their candidates through the block kernels per shard (the tree
// backends, whose traversal is per-candidate, must report zero). The
// survivor counters must respect the tier chain.
func TestCorpusShardedBlockKernels(t *testing.T) {
	ctx := context.Background()
	const k = 2
	gCorpus := randomGraph(85, 190, 960)
	gQuery := randomGraph(45, 95, 961)

	for _, b := range allBackends {
		scan := b == BackendLinear || b == BackendPrunedLinear
		corpora := shardCorpora(t, gCorpus, k, b, []int{1, 4})
		assertShardEquivalence(t, fmt.Sprintf("%v block", b), corpora, gQuery, k, 5, 962)
		for shards, c := range corpora {
			s := c.Stats()
			if scan && s.BlockCandidates == 0 {
				t.Errorf("%v shards=%d: scan backend served queries without the block kernels (stats %+v)",
					b, shards, s)
			}
			if !scan && s.BlockCandidates != 0 {
				t.Errorf("%v shards=%d: tree backend reported %d block candidates",
					b, shards, s.BlockCandidates)
			}
			if s.BlockSizeSurvivors < s.BlockPaddingSurvivors || s.BlockPaddingSurvivors < s.BlockLabelSurvivors ||
				s.BlockCandidates < s.BlockSizeSurvivors {
				t.Errorf("%v shards=%d: survivor chain broken: candidates %d >= size %d >= padding %d >= label %d",
					b, shards, s.BlockCandidates, s.BlockSizeSurvivors, s.BlockPaddingSurvivors, s.BlockLabelSurvivors)
			}
			c.ResetStats()
			if s := c.Stats(); s.BlockCandidates != 0 || s.BlockLabelSurvivors != 0 {
				t.Errorf("%v shards=%d: ResetStats left block counters %+v", b, shards, s)
			}
		}
	}

	// Churn keeps the block path live: the scan backends recompile their
	// block on every mutation, so answers and counters must hold after
	// removals and re-inserts at both shard counts.
	for _, b := range []Backend{BackendLinear, BackendPrunedLinear} {
		corpora := shardCorpora(t, gCorpus, k, b, []int{1, 4})
		for _, c := range corpora {
			if err := c.Remove(NodeID(3), NodeID(11), NodeID(40)); err != nil {
				t.Fatal(err)
			}
			if err := c.Insert(NodeID(11)); err != nil {
				t.Fatal(err)
			}
		}
		assertShardEquivalence(t, fmt.Sprintf("%v block churn", b), corpora, gQuery, k, 4, 963)
		for shards, c := range corpora {
			if s := c.Stats(); s.BlockCandidates == 0 {
				t.Errorf("%v shards=%d: block kernels went dark after churn (stats %+v)", b, shards, s)
			}
		}
		// A Range through the corpus surface drives the bitmap kernel path.
		sig := NewSignature(gQuery, NodeID(7), k)
		for shards, c := range corpora {
			if _, err := c.Range(ctx, sig, 3); err != nil {
				t.Fatalf("%v shards=%d Range: %v", b, shards, err)
			}
		}
	}
}

// TestCorpusShardedNodeQueries: node-ID KNN (the path that resolves the
// query item out of the owning shard's table) agrees across shard
// counts, directed corpora included.
func TestCorpusShardedNodeQueries(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(940))
	b := NewGraphBuilder(40, true)
	for i := 0; i < 100; i++ {
		u, v := NodeID(rng.Intn(40)), NodeID(rng.Intn(40))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	for _, backend := range allBackends {
		c1, err := NewCorpus(g, 2, WithBackend(backend), WithDirected(), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		c4, err := NewCorpus(g, 2, WithBackend(backend), WithDirected(), WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v += 7 {
			want, err := c1.KNN(ctx, NodeID(v), 6)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c4.KNN(ctx, NodeID(v), 6)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v directed node %d: shards=4 KNN %v, shards=1 %v", backend, v, got, want)
			}
		}
	}
}

// TestCorpusShardStats pins the configuration Stats reports: the
// per-shard node counts must partition the corpus, the configured shard
// count must be reported, and a corpus built with no options reports
// the default backend, the pruned scan.
func TestCorpusShardStats(t *testing.T) {
	g := randomGraph(60, 120, 941)
	def, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Stats().Backend.String(); got != "pruned" {
		t.Errorf("NewCorpus with no options: Stats().Backend = %q, want \"pruned\"", got)
	}
	c, err := NewCorpus(g, 2, WithShards(5), WithBackend(BackendLinear))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Shards != 5 || len(s.ShardNodes) != 5 {
		t.Fatalf("Shards = %d with %d ShardNodes, want 5", s.Shards, len(s.ShardNodes))
	}
	sum := 0
	for _, n := range s.ShardNodes {
		sum += n
	}
	if sum != s.Nodes || s.Nodes != g.NumNodes() {
		t.Errorf("ShardNodes sum %d, Nodes %d, graph %d", sum, s.Nodes, g.NumNodes())
	}
}

// TestCorpusStatsRaceWithMutation is the Stats/ResetStats concurrency
// regression test: under -race, Stats, ResetStats, queries, and
// mutations must all interleave freely — per-shard counters are read
// and reset atomically, never under a mutation's lock.
func TestCorpusStatsRaceWithMutation(t *testing.T) {
	g := randomGraph(60, 120, 942)
	c, err := NewCorpus(g, 2, WithBackend(BackendVP), WithShards(4), WithRebuildThreshold(0.2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.KNN(ctx, 0, 3); err != nil { // build before the hammering
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				v := NodeID(30 + rng.Intn(30))
				if err := c.Remove(v); err != nil {
					t.Errorf("Remove: %v", err)
					return
				}
				if err := c.Insert(v); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 30; i++ {
				s := c.Stats()
				if s.Nodes < 30 {
					t.Errorf("Stats.Nodes = %d mid-churn, want >= 30", s.Nodes)
					return
				}
				if rng.Intn(10) == 0 {
					c.ResetStats()
				}
				if _, err := c.KNN(ctx, NodeID(rng.Intn(30)), 3); err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if s := c.Stats(); s.Nodes != g.NumNodes() {
		t.Errorf("Nodes = %d after balanced churn, want %d", s.Nodes, g.NumNodes())
	}
}

// TestCorpusShardedUpdateGraph drives UpdateGraph on a sharded corpus
// and checks the result against a fresh build on the new version.
func TestCorpusShardedUpdateGraph(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g1 := randomGraph(50, 100, 943)
	c, err := NewCorpus(g1, k, WithBackend(BackendBK), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 5); err != nil { // materialize
		t.Fatal(err)
	}
	// New version: drop one edge, add two.
	b := NewGraphBuilder(50, false)
	edges := g1.Edges()
	for _, e := range edges[1:] {
		b.AddEdge(e.U, e.V)
	}
	b.AddEdge(1, 47)
	b.AddEdge(12, 33)
	g2 := b.Build()
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCorpus(g2, k, WithBackend(BackendLinear), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	gq := randomGraph(30, 60, 944)
	for q := 0; q < 5; q++ {
		sig := NewSignature(gq, NodeID(q), k)
		got, err := c.KNNSignature(ctx, sig, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.KNNSignature(ctx, sig, 8)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d after sharded UpdateGraph: got %v, want %v", q, got, want)
		}
	}
}

// TestCorpusShardedConcurrentChurn hammers a sharded corpus with
// queries and mutations concurrently under -race: the epoch protocol
// must keep every interleaving consistent, including amortized rebuilds
// firing mid-traffic.
func TestCorpusShardedConcurrentChurn(t *testing.T) {
	g := randomGraph(60, 120, 945)
	for _, b := range allBackends {
		c, err := NewCorpus(g, 2, WithBackend(b), WithShards(4), WithRebuildThreshold(0.15))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 15; i++ {
					if _, err := c.KNN(ctx, NodeID(rng.Intn(30)), 4); err != nil {
						t.Errorf("%v concurrent KNN: %v", b, err)
						return
					}
					c.Stats()
				}
			}(int64(w))
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(200 + seed))
				for i := 0; i < 10; i++ {
					v := NodeID(30 + rng.Intn(30))
					if err := c.Remove(v); err != nil {
						t.Errorf("%v concurrent Remove: %v", b, err)
						return
					}
					if err := c.Insert(v); err != nil {
						t.Errorf("%v concurrent Insert: %v", b, err)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		if s := c.Stats(); s.Nodes != g.NumNodes() {
			t.Errorf("%v: Nodes = %d after balanced churn, want %d", b, s.Nodes, g.NumNodes())
		}
	}
}
