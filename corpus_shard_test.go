package ned

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// This file is the corpus-equivalence suite: the engine must answer
// exactly as the exhaustive scan over the live nodes does — statically,
// under churn, and across snapshot round-trips — whatever deprecated
// WithShards value it is given. It also pins the concurrency contracts
// of the one write lock: Stats/ResetStats racing mutations, and queries
// proceeding while writers mutate. The test names predate the single
// scan and are kept so CI's -run patterns keep selecting them.

// TestCorpusShardedEquivalence: every query path answers exactly as the
// exhaustive scan does — statically, after churn batches, and after a
// snapshot round-trip. The subtests are the four names WithBackend
// accepts for one more release; each one runs the same scan.
func TestCorpusShardedEquivalence(t *testing.T) {
	const k = 2
	gCorpus := randomGraph(80, 170, 930)
	gQuery := randomGraph(50, 100, 931)

	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			c, err := NewCorpus(gCorpus, k, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, "static", c, oracleOver(gCorpus, k, allNodes(gCorpus)), gQuery, k, 6, 932)

			// Churn: mutation batches, queried after each round.
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
				if err := c.Remove(rm...); err != nil {
					t.Fatalf("round %d: Remove: %v", round, err)
				}
				if err := c.Insert(add...); err != nil {
					t.Fatalf("round %d: Insert: %v", round, err)
				}
				assertMatchesOracle(t, fmt.Sprintf("churn round %d", round), c,
					oracleOver(gCorpus, k, sortedNodes(live)), gQuery, k, 3, 934+int64(round))
			}

			// Snapshot round-trip: the churned corpus reloaded must keep
			// answering identically.
			var buf bytes.Buffer
			if err := c.Snapshot(&buf); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			reloaded, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadCorpus: %v", err)
			}
			if s := reloaded.Stats(); s.Nodes != len(live) {
				t.Fatalf("reloaded: stats %+v, want %d nodes", s, len(live))
			}
			assertMatchesOracle(t, "reloaded", reloaded, oracleOver(gCorpus, k, sortedNodes(live)), gQuery, k, 4, 939)
		})
	}
}

// TestCorpusShardedCascadeEquivalence covers the filter–verify cascade
// end to end: the corpus path (profiled items, precompiled query
// profiles, best-first evaluation, tier pruning) must answer
// node-identically to the cascade-free ground truth — an exhaustive
// unbudgeted TopL over raw signatures — and the per-tier prune counters
// must add up.
func TestCorpusShardedCascadeEquivalence(t *testing.T) {
	ctx := context.Background()
	const k = 2
	gCorpus := randomGraph(90, 200, 950)
	gQuery := randomGraph(40, 90, 951)
	o := oracleOver(gCorpus, k, allNodes(gCorpus))

	c, err := NewCorpus(gCorpus, k)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		sig := NewSignature(gQuery, NodeID(q*5), k)
		got, err := c.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.knn(sig, 7); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: cascade KNN %v, exhaustive TopL %v", q, got, want)
		}
	}
	s := c.Stats()
	if s.LowerBoundPrunes != s.SizePrunes+s.PaddingPrunes+s.LabelPrunes {
		t.Errorf("LowerBoundPrunes %d != size %d + padding %d + label %d",
			s.LowerBoundPrunes, s.SizePrunes, s.PaddingPrunes, s.LabelPrunes)
	}
	c.ResetStats()
	if s := c.Stats(); s.SizePrunes != 0 || s.PaddingPrunes != 0 || s.LabelPrunes != 0 {
		t.Errorf("ResetStats left tier counters %d/%d/%d", s.SizePrunes, s.PaddingPrunes, s.LabelPrunes)
	}

	// Regression (first-query profiling order): the very first query of
	// a lazily built corpus must be profiled AFTER the build interns the
	// corpus shapes — profiled before, its label multisets would count
	// every shared shape as a mismatch and the label tier would prune
	// true neighbors. Fresh corpus per query, l=1 keeps the threshold
	// tight enough to expose any invalid bound.
	for q := 0; q < 4; q++ {
		sig := NewSignature(gQuery, NodeID(q*7), k)
		first, err := NewCorpus(gCorpus, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := first.KNNSignature(ctx, sig, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.knn(sig, 1); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("first-ever query %d: %v, exhaustive %v", q, got, want)
		}
	}

	// The scan precompiles every candidate's bounds, so a small-l query
	// over a 90-node corpus must show tier pruning at work.
	c, err = NewCorpus(gCorpus, k)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		if _, err := c.KNNSignature(ctx, NewSignature(gQuery, NodeID(q), k), 2); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.LowerBoundPrunes == 0 {
		t.Errorf("no cascade prunes across %d queries (stats %+v)", 6, s)
	}
}

// TestCorpusShardedBlockKernels extends the equivalence suite to the
// columnar block path: KNN and Range answers must equal the oracle's,
// the BlockCandidates counter must prove the scan swept its candidates
// through the block kernels, and the survivor counters must respect the
// tier chain — before and after churn adds a delta block.
func TestCorpusShardedBlockKernels(t *testing.T) {
	const k = 2
	gCorpus := randomGraph(85, 190, 960)
	gQuery := randomGraph(45, 95, 961)

	c, err := NewCorpus(gCorpus, k)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, "block", c, oracleOver(gCorpus, k, allNodes(gCorpus)), gQuery, k, 5, 962)
	s := c.Stats()
	if s.BlockCandidates == 0 {
		t.Errorf("queries served without the block kernels (stats %+v)", s)
	}
	if s.BlockSizeSurvivors < s.BlockPaddingSurvivors || s.BlockPaddingSurvivors < s.BlockLabelSurvivors ||
		s.BlockCandidates < s.BlockSizeSurvivors {
		t.Errorf("survivor chain broken: candidates %d >= size %d >= padding %d >= label %d",
			s.BlockCandidates, s.BlockSizeSurvivors, s.BlockPaddingSurvivors, s.BlockLabelSurvivors)
	}
	c.ResetStats()
	if s := c.Stats(); s.BlockCandidates != 0 || s.BlockLabelSurvivors != 0 {
		t.Errorf("ResetStats left block counters %+v", s)
	}

	// Churn keeps the block path live: a mutation tombstones base slots
	// and compiles a delta block, so answers and counters must hold after
	// removals and re-inserts.
	if err := c.Remove(NodeID(3), NodeID(11), NodeID(40)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(NodeID(11)); err != nil {
		t.Fatal(err)
	}
	live := map[NodeID]bool{}
	for _, v := range allNodes(gCorpus) {
		if v != 3 && v != 40 {
			live[v] = true
		}
	}
	assertMatchesOracle(t, "block churn", c, oracleOver(gCorpus, k, sortedNodes(live)), gQuery, k, 4, 963)
	if s := c.Stats(); s.BlockCandidates == 0 {
		t.Errorf("block kernels went dark after churn (stats %+v)", s)
	}
}

// TestCorpusShardedNodeQueries: node-ID KNN (the path that resolves the
// query item out of the scan) on a directed corpus equals the
// exhaustive ranking by the low-level directed NED.
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
	c, err := NewCorpus(g, 2, WithDirected())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v += 7 {
		want := directedRanking(g, NodeID(v), 2)[:6]
		got, err := c.KNN(ctx, NodeID(v), 6)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("directed node %d: KNN %v, exhaustive %v", v, got, want)
		}
	}
}

// TestCorpusShardStats pins the deprecated WithShards: whatever value
// it is given, the corpus answers node-identically to ned.TopL, Stats
// reports one shard holding every node, and the backend reported is the
// pruned scan.
func TestCorpusShardStats(t *testing.T) {
	const k = 2
	g := randomGraph(60, 120, 941)
	gq := randomGraph(30, 60, 947)
	o := oracleOver(g, k, allNodes(g))
	for _, n := range []int{-1, 0, 1, 2, 7} {
		c, err := NewCorpus(g, k, WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("WithShards(%d)", n)
		assertMatchesOracle(t, label, c, o, gq, k, 4, 948)
		s := c.Stats()
		if s.Shards != 1 || fmt.Sprint(s.ShardNodes) != fmt.Sprint([]int{g.NumNodes()}) || s.Nodes != g.NumNodes() {
			t.Errorf("%s: Shards = %d holding %v, Nodes %d; want 1 holding all %d", label, s.Shards, s.ShardNodes, s.Nodes, g.NumNodes())
		}
		if got := s.Backend.String(); got != "pruned" {
			t.Errorf("%s: Stats().Backend = %q, want \"pruned\"", label, got)
		}
	}
}

// TestCorpusStatsRaceWithMutation is the Stats/ResetStats concurrency
// regression test: under -race, Stats, ResetStats, queries, and
// mutations must all interleave freely — counters are read and reset
// atomically, never under the write lock.
func TestCorpusStatsRaceWithMutation(t *testing.T) {
	g := randomGraph(60, 120, 942)
	c, err := NewCorpus(g, 2)
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

// TestCorpusShardedUpdateGraph drives UpdateGraph on a built corpus
// and checks the result against the exhaustive scan of the new version.
func TestCorpusShardedUpdateGraph(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g1 := randomGraph(50, 100, 943)
	c, err := NewCorpus(g1, k)
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
	assertMatchesOracle(t, "after UpdateGraph", c, oracleOver(g2, k, allNodes(g2)), randomGraph(30, 60, 944), k, 5, 946)
}

// TestCorpusShardedConcurrentChurn hammers a corpus with queries and
// mutations concurrently under -race: the epoch protocol
// must keep every interleaving consistent.
func TestCorpusShardedConcurrentChurn(t *testing.T) {
	g := randomGraph(60, 120, 945)
	c, err := NewCorpus(g, 2)
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
					t.Errorf("concurrent KNN: %v", err)
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
					t.Errorf("concurrent Remove: %v", err)
					return
				}
				if err := c.Insert(v); err != nil {
					t.Errorf("concurrent Insert: %v", err)
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
