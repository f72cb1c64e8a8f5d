package ned

import (
	"context"
	"fmt"
	"testing"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

// profiledCopy returns the items compiled against a fresh dictionary,
// leaving the originals unprofiled (Item is a value; profiles are the
// only pointers added).
func profiledCopy(items []Item, dict *tree.Interner) []Item {
	out := append([]Item(nil), items...)
	ProfileItems(out, dict, 2)
	return out
}

// TestCascadeProfiledBackendsAgree is the cascade-path equivalence
// suite at the index layer: every backend, fed fully profiled items and
// a profiled query, must answer KNN and Range node-identically to the
// exhaustive unbudgeted scan over the unprofiled items — the filter
// tiers, the interned-key isomorphism fast path, and the best-first
// orders may only skip work, never change answers. Directed items are
// covered too (summed out/in bounds).
func TestCascadeProfiledBackendsAgree(t *testing.T) {
	ctx := context.Background()
	for _, directed := range []bool{false, true} {
		for trial := int64(0); trial < 3; trial++ {
			g := randomDirTestGraph(70, 160, 40+trial, directed)
			var nodes []graph.NodeID
			for v := 0; v < g.NumNodes(); v++ {
				nodes = append(nodes, graph.NodeID(v))
			}
			items := BuildItems(g, nodes, 2, directed, 2)
			dict := tree.NewInterner()
			profiled := profiledCopy(items, dict)
			query := NewItem(randomDirTestGraph(50, 100, 90+trial, directed), 0, 2, directed)
			pq := query
			ProfileItem(&pq, dict)

			ref := exhaustiveKNN(query, items, 9)
			var refRange []Neighbor
			for _, it := range items {
				if d := ItemDistance(query, it); d <= 4 {
					refRange = append(refRange, Neighbor{Node: it.Node, Dist: d})
				}
			}
			sortNeighborsCanonical(refRange)

			for name, ix := range allTestBackends(profiled) {
				got, err := ix.KNN(ctx, pq, 9)
				if err != nil {
					t.Fatalf("%s KNN: %v", name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Errorf("directed=%v trial %d %s: profiled KNN %v, exhaustive %v",
						directed, trial, name, got, ref)
				}
				gotRange, err := ix.Range(ctx, pq, 4)
				if err != nil {
					t.Fatalf("%s Range: %v", name, err)
				}
				if fmt.Sprint(gotRange) != fmt.Sprint(refRange) {
					t.Errorf("directed=%v trial %d %s: profiled Range %v, exhaustive %v",
						directed, trial, name, gotRange, refRange)
				}
				c := ix.Counters()
				if c.LowerBoundPrunes != c.SizePrunes+c.PaddingPrunes+c.LabelPrunes {
					t.Errorf("%s: LowerBoundPrunes=%d != size %d + padding %d + tier-2 %d",
						name, c.LowerBoundPrunes, c.SizePrunes, c.PaddingPrunes, c.LabelPrunes)
				}
			}
		}
	}
}

func randomDirTestGraph(n, m int, seed int64, directed bool) *graph.Graph {
	if !directed {
		return randomTestGraph(n, m, seed)
	}
	g := randomTestGraph(n, m, seed)
	b := graph.NewBuilder(n, true)
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// TestCascadeTiersFire drives a profiled scan with a tight result set
// and checks the tier counters actually attribute prunes: on a mixed
// workload at least one cascade tier must fire, and the canon fast
// path must rank an isomorphic duplicate at distance 0 without error.
func TestCascadeTiersFire(t *testing.T) {
	ctx := context.Background()
	g := randomTestGraph(120, 260, 5)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	items := BuildItems(g, nodes, 2, false, 2)
	dict := tree.NewInterner()
	profiled := profiledCopy(items, dict)

	// Query with an item from the corpus itself: its isomorphic twin is
	// indexed, so the interned-key fast path must surface it at 0.
	pq := profiled[17]
	for name, ix := range map[string]Index{
		"linear": NewLinearBackend(profiled, 2),
		"pruned": NewPrunedLinearBackend(profiled),
	} {
		got, err := ix.KNN(ctx, pq, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) == 0 || got[0].Dist != 0 {
			t.Fatalf("%s: self-query top hit %v, want distance 0", name, got)
		}
		c := ix.Counters()
		if c.LowerBoundPrunes == 0 {
			t.Errorf("%s: no cascade prunes on a 120-item scan with l=3", name)
		}
		if c.LowerBoundPrunes != c.SizePrunes+c.PaddingPrunes+c.LabelPrunes {
			t.Errorf("%s: tier sum %d+%d+%d != LowerBoundPrunes %d",
				name, c.SizePrunes, c.PaddingPrunes, c.LabelPrunes, c.LowerBoundPrunes)
		}
	}
}

// TestCascadeDegreeTierFires pins the tier the cheaper bounds cannot
// express: candidates with the exact level-size profile of the query
// but different wiring have size and padding bounds of 0, so only the
// degree-sequence tier can dismiss them without TED* work. A self-query
// with l=1 drives the threshold to 0 after the first hit; the twin
// with identical levels must then be pruned by tier 2, not evaluated.
func TestCascadeDegreeTierFires(t *testing.T) {
	ctx := context.Background()
	// Same level sizes (1,2,2), different wiring: in a both depth-1
	// nodes have one child; in b one has two and one has none. Child
	// counts (1,1) vs (0,2) give Δ_1 = 2 against P_2 = 0: one move, which
	// is the whole distance.
	a := tree.MustNew([]int32{-1, 0, 0, 1, 2})
	bTree := tree.MustNew([]int32{-1, 0, 0, 1, 1})
	dict := tree.NewInterner()
	items := []Item{
		{Node: 1, K: 2, Out: a},
		{Node: 2, K: 2, Out: bTree},
	}
	ProfileItems(items, dict, 1)
	q := items[0]
	if bound, pruned := degreeTierPrunes(q, items[1], paddingBound(q, items[1]), 0); bound != 1 || !pruned || ItemDistance(q, items[1]) != 1 {
		t.Fatalf("degree bound %d (pruned at 0: %v), distance %d; want 1, true, 1",
			bound, pruned, ItemDistance(q, items[1]))
	}
	ix := NewPrunedLinearBackend(items)
	got, err := ix.KNN(ctx, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != 1 || got[0].Dist != 0 {
		t.Fatalf("self-query returned %v, want node 1 at 0", got)
	}
	// The self hit is the one evaluation; the twin never starts a TED*.
	c := ix.Counters()
	if c.LabelPrunes != 1 || c.DistanceCalls != 1 {
		t.Errorf("tier-2 prunes = %d, TED* calls = %d, want 1 and 1 (twin has equal levels, different wiring); counters %+v",
			c.LabelPrunes, c.DistanceCalls, c)
	}
}

// TestCascadeBoundsDominance spot-checks the item-level bound chain the
// best-first orders sort by, including directed summing: the block
// kernels' size <= pad <= degree <= exact distance.
func TestCascadeBoundsDominance(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomDirTestGraph(60, 130, 3, directed)
		var nodes []graph.NodeID
		for v := 0; v < g.NumNodes(); v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		profiled := BuildProfiledItems(g, nodes, 3, directed, tree.NewInterner(), 2)
		blk := compileBlock(profiled)
		sizeB, padB := make([]int32, blk.n), make([]int32, blk.n)
		q := profiled[0]
		blk.bounds(q, 0, int32(blk.n), sizeB, padB)
		for j := range blk.n {
			it := profiled[blk.slot(int32(j))]
			deg, _ := degreeTierPrunes(q, it, paddingBound(q, it), ted.Unbounded)
			d := ItemDistance(q, it)
			if sizeB[j] > padB[j] || int(padB[j]) > deg || deg > d {
				t.Fatalf("directed=%v node %d: chain size=%d pad=%d degree=%d exact=%d",
					directed, it.Node, sizeB[j], padB[j], deg, d)
			}
		}
	}
}
