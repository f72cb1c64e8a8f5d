package ned

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"ned/internal/ned"
	"ned/internal/tree"
)

// liveItems collects the published items into one map, for white-box
// assertions on signature reuse across graph updates.
func liveItems(c *Corpus) map[NodeID]ned.Item {
	out := make(map[NodeID]ned.Item)
	for it := range c.view.Load().items() {
		out[it.Node] = it
	}
	return out
}

// sortedNodes returns the keys of a membership set in ascending order.
func sortedNodes(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestCorpusChurnEquivalence is the dynamic-index contract: interleave
// Insert/Remove with queries and, after every mutation batch, every
// query path must answer exactly as the exhaustive scan over the live
// node set does.
func TestCorpusChurnEquivalence(t *testing.T) {
	const k = 2
	gQuery := randomGraph(50, 100, 900)
	gCorpus := randomGraph(80, 170, 901)
	c, err := NewCorpus(gCorpus, k)
	if err != nil {
		t.Fatal(err)
	}

	live := map[NodeID]bool{}
	for v := 0; v < gCorpus.NumNodes(); v++ {
		live[NodeID(v)] = true
	}

	rng := rand.New(rand.NewSource(902))
	for round := 0; round < 8; round++ {
		// Remove a random batch of live nodes...
		var rm []NodeID
		for _, v := range rng.Perm(gCorpus.NumNodes())[:6] {
			if live[NodeID(v)] {
				rm = append(rm, NodeID(v))
				delete(live, NodeID(v))
			}
		}
		// ...and re-insert a random batch of absent ones.
		var add []NodeID
		for v := 0; v < gCorpus.NumNodes() && len(add) < 3; v++ {
			if !live[NodeID(v)] && rng.Intn(4) == 0 {
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
		assertMatchesOracle(t, fmt.Sprintf("round %d", round), c,
			oracleOver(gCorpus, k, sortedNodes(live)), gQuery, k, 4, 903+int64(round))
		if n := c.Stats().Nodes; n != len(live) {
			t.Fatalf("round %d: Stats.Nodes = %d, want %d", round, n, len(live))
		}
	}
}

// sameKNN checks that got answers KNN for every node of [0, n) exactly
// as want does.
func sameKNN(t *testing.T, label string, got, want *Corpus, n int) {
	t.Helper()
	ctx := context.Background()
	for v := 0; v < n; v++ {
		a, err := got.KNN(ctx, NodeID(v), 10)
		if err != nil {
			t.Fatalf("%s: KNN(%d): %v", label, v, err)
		}
		b, err := want.KNN(ctx, NodeID(v), 10)
		if err != nil {
			t.Fatalf("%s: fresh KNN(%d): %v", label, v, err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: KNN(%d) = %v, a fresh corpus answers %v", label, v, a, b)
		}
	}
}

// assertBuilt fails unless c reports itself built over nodes nodes.
func assertBuilt(t *testing.T, label string, c *Corpus, nodes int) {
	t.Helper()
	if s := c.Stats(); !s.Built || s.Nodes != nodes {
		t.Fatalf("%s: stats %+v, want built with %d nodes", label, s, nodes)
	}
}

// TestCorpusIsBuiltWhenMade pins the one life stage of a corpus:
// NewCorpus, LoadCorpus and OpenDurable each return it built, answering
// node-identically to the corpus it was saved from.
func TestCorpusIsBuiltWhenMade(t *testing.T) {
	const k = 2
	g := randomGraph(30, 60, 903)
	live := []NodeID{1, 3, 10, 11}
	c, err := NewCorpus(g, k, WithNodes([]NodeID{1, 3, 10, 11, 3}))
	if err != nil {
		t.Fatal(err)
	}
	assertBuilt(t, "NewCorpus", c, len(live))

	var snap bytes.Buffer
	if err := c.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&snap)
	if err != nil {
		t.Fatal(err)
	}
	assertBuilt(t, "LoadCorpus", loaded, len(live))
	sameKNN(t, "LoadCorpus", loaded, c, g.NumNodes())

	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.CloseDurable()
	assertBuilt(t, "OpenDurable", opened, len(live))
	sameKNN(t, "OpenDurable", opened, c, g.NumNodes())
}

// TestCorpusMutationBeforeBuild checks churn on a corpus that has never
// been queried: Insert, Remove and UpdateGraph right after NewCorpus
// leave it built and answering node-identically to a corpus built
// afresh over the same live nodes. (A corpus has no unbuilt stage any
// more; the name is kept from when the first query built it.)
func TestCorpusMutationBeforeBuild(t *testing.T) {
	const k = 2
	g := randomGraph(30, 60, 903)
	c, err := NewCorpus(g, k, WithNodes([]NodeID{1, 2, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	assertBuilt(t, "NewCorpus", c, 3)
	if err := c.Insert(10, 11); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(2, 25); err != nil { // 25 was never indexed: no-op
		t.Fatal(err)
	}
	assertBuilt(t, "after Insert and Remove", c, 4)
	live := []NodeID{1, 3, 10, 11}
	fresh, err := NewCorpus(g, k, WithNodes(live))
	if err != nil {
		t.Fatal(err)
	}
	sameKNN(t, "Insert and Remove", c, fresh, g.NumNodes())
	assertMatchesOracle(t, "Insert and Remove", c, oracleOver(g, k, live), g, k, 8, 903)

	u, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	g2 := randomGraph(25, 50, 904)
	if _, err := u.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	assertBuilt(t, "after UpdateGraph", u, g2.NumNodes())
	fresh2, err := NewCorpus(g2, k)
	if err != nil {
		t.Fatal(err)
	}
	sameKNN(t, "UpdateGraph", u, fresh2, g2.NumNodes())
}

// TestCorpusBadNodeDoesNotBuild: an out-of-range node query errors at
// once with ErrNodeOutOfRange, serves no query and starts no TED*
// evaluation, so the corpus's stats read as before it.
func TestCorpusBadNodeDoesNotBuild(t *testing.T) {
	g := randomGraph(30, 60, 920)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for _, v := range []NodeID{999, -1} {
		if _, err := c.KNN(context.Background(), v, 3); !errors.Is(err, ErrNodeOutOfRange) {
			t.Errorf("KNN(%d): got %v, want ErrNodeOutOfRange", v, err)
		}
	}
	if after := c.Stats(); after.Queries != before.Queries || after.DistanceCalls != before.DistanceCalls || !after.Built {
		t.Errorf("out-of-range KNN changed the stats: before %+v, after %+v", before, after)
	}
}

// TestCorpusInsertErrors pins the mutation error contract.
func TestCorpusInsertErrors(t *testing.T) {
	g := randomGraph(20, 40, 904)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(5, 99); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("Insert(99): got %v, want ErrNodeOutOfRange", err)
	}
	// The failed batch must not have been half-applied: node 5 is
	// still... a member (it was from construction), but the corpus is
	// untouched and a later valid Insert works.
	if err := c.Insert(5); err != nil { // already indexed: idempotent
		t.Errorf("idempotent Insert: %v", err)
	}
	if err := c.Remove(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(5); err != nil { // already gone: idempotent
		t.Errorf("idempotent Remove: %v", err)
	}
	if s := c.Stats(); s.Nodes != 19 {
		t.Errorf("Stats.Nodes = %d, want 19", s.Nodes)
	}
}

// TestCorpusStatsAcrossRebuild: Rebuild on a built corpus is a no-op —
// serving counters neither reset nor pick up maintenance work — and
// ResetStats clears them.
func TestCorpusStatsAcrossRebuild(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(60, 120, 905)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.DistanceCalls == 0 {
		t.Fatal("no distance calls after a query")
	}

	c.Rebuild()
	after := c.Stats()
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", before) {
		t.Errorf("stats moved across Rebuild: before %+v, after %+v", before, after)
	}

	// Counters keep accumulating afterwards...
	if _, err := c.KNN(ctx, 1, 5); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.DistanceCalls <= after.DistanceCalls {
		t.Errorf("DistanceCalls stuck at %d after post-rebuild query", s.DistanceCalls)
	}
	// ...and ResetStats clears everything.
	c.ResetStats()
	if s := c.Stats(); s.DistanceCalls != 0 || s.Queries != 0 || s.EarlyExits != 0 || s.LowerBoundPrunes != 0 {
		t.Errorf("ResetStats left counters: %+v", s)
	}
}

// TestCorpusStatsAcrossMutationRebuild: every mutation publishes a
// successor scan with a new delta; the serving counters must
// carry across each of them and never move backward.
func TestCorpusStatsAcrossMutationRebuild(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(60, 120, 906)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var lastCalls int64
	for round := 0; round < 6; round++ {
		if _, err := c.KNN(ctx, NodeID(round), 5); err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		if s.DistanceCalls <= lastCalls {
			t.Fatalf("round %d: DistanceCalls did not grow: %d -> %d", round, lastCalls, s.DistanceCalls)
		}
		lastCalls = s.DistanceCalls
		var batch []NodeID
		for i := 0; i < 10; i++ {
			batch = append(batch, NodeID((round*10+i)%g.NumNodes()))
		}
		if err := c.Remove(batch...); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(batch...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusConcurrentChurnAndQueries hammers one corpus with queries
// while other goroutines churn it; under -race this verifies the
// locking protocol, including Insert's optimistic out-of-lock signature
// extraction. Results are not asserted against a reference here (they
// depend on mutation timing) — only that every query serves some
// consistent answer without error.
func TestCorpusConcurrentChurnAndQueries(t *testing.T) {
	g := randomGraph(60, 120, 921)
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
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 10; i++ {
				// Churn only the upper half of the node range so the
				// queried nodes above always stay members.
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

// TestCorpusUpdateGraphInvalidation checks the ≤k-hop invalidation
// contract of UpdateGraph: only signatures an edge change can reach are
// re-extracted; every untouched node keeps its cached tree object —
// and with it its lazily derived AHU canonical encoding.
func TestCorpusUpdateGraphInvalidation(t *testing.T) {
	const k = 2
	// A long path graph keeps neighborhoods local: an edge change at one
	// end cannot reach signatures at the other.
	n := 40
	b := NewGraphBuilder(n, false)
	for v := 0; v < n-1; v++ {
		b.AddEdge(NodeID(v), NodeID(v+1))
	}
	g1 := b.Build()

	c, err := NewCorpus(g1, k)
	if err != nil {
		t.Fatal(err)
	}
	// Remember each row's stored tree.
	stored := func() map[NodeID][]byte {
		out := map[NodeID][]byte{}
		for r := range c.view.Load().scan.Rows() {
			out[r.Node] = slices.Clone(r.Out)
		}
		return out
	}
	trees := stored()

	// New version: one extra edge at the head of the path.
	b2 := NewGraphBuilder(n, false)
	for v := 0; v < n-1; v++ {
		b2.AddEdge(NodeID(v), NodeID(v+1))
	}
	b2.AddEdge(0, 2)
	g2 := b2.Build()

	refreshed, err := c.UpdateGraph(g2)
	if err != nil {
		t.Fatal(err)
	}
	// Affected set: nodes within k-1 = 1 hop of {0, 2} in either
	// version, i.e. {0, 1, 2, 3}.
	if refreshed != 4 {
		t.Errorf("refreshed %d signatures, want 4", refreshed)
	}
	after, items := stored(), liveItems(c)
	for v, old := range trees {
		if v <= 3 {
			if want, _ := tree.KAdjacent(g2, v, k); tree.Canonical(items[v].Out) != tree.Canonical(want) {
				t.Errorf("node %d: refreshed signature does not match the new graph", v)
			}
		} else if !slices.Equal(after[v], old) {
			t.Errorf("node %d: unaffected signature changed", v)
		}
	}

	// Queries after the update match the exhaustive scan over g2.
	assertMatchesOracle(t, "after UpdateGraph", c, oracleOver(g2, k, allNodes(g2)), randomGraph(30, 60, 907), k, 5, 909)
}

// TestCorpusUpdateGraphShrinks checks that indexed nodes beyond the new
// graph's range are dropped from the index.
func TestCorpusUpdateGraphShrinks(t *testing.T) {
	ctx := context.Background()
	g1 := randomGraph(30, 60, 908)
	c, err := NewCorpus(g1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	// Shrink to the first 20 nodes (edges among them preserved).
	b := NewGraphBuilder(20, false)
	for _, e := range g1.Edges() {
		if int(e.U) < 20 && int(e.V) < 20 {
			b.AddEdge(e.U, e.V)
		}
	}
	g2 := b.Build()
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Nodes != 20 {
		t.Fatalf("Stats.Nodes = %d after shrink, want 20", s.Nodes)
	}
	res, err := c.KNN(ctx, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range res {
		if int(nb.Node) >= 20 {
			t.Errorf("vanished node %d still served", nb.Node)
		}
	}
}
