package ned_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// A loaded scan's base block is, column for column, the block a scan
// builds over the same rows: nodes, sizes, width, level widths, degree
// runs, stored trees, ranks and the node list. Covered: a 500-node
// sample of each dataset analog at k = 3 and of a directed corpus, each
// written in 1, 2 and 16 item tables, with a row not in BFS order (its
// parent vector stored); a tall row that a table holds after short
// ones; and rows whose degree runs take two and four bytes a count, the
// first with stored labels either side of 2¹⁶.
func TestLoadedBlockEqualsBuilt(t *testing.T) {
	type corpus struct {
		name     string
		g        *graph.Graph
		directed bool
		nodes    []graph.NodeID
		seeded   bool // interned after 2¹⁶ shapes the rows do not use
		width    int  // the degree runs' bytes a count; 0: unchecked
	}
	sample := func(g *graph.Graph) []graph.NodeID {
		var nodes []graph.NodeID
		for _, v := range rand.New(rand.NewSource(3)).Perm(g.NumNodes())[:500] {
			nodes = append(nodes, graph.NodeID(v))
		}
		slices.Sort(nodes)
		return nodes
	}
	var corpora []corpus
	for _, name := range datasets.All {
		g := datasets.MustGenerate(name, datasets.Options{Seed: 5})
		corpora = append(corpora, corpus{string(name), g, false, sample(g), false, 0})
	}
	// The GNU analog with every edge oriented at random.
	gnu := datasets.MustGenerate(datasets.GNU, datasets.Options{Seed: 5})
	rng := rand.New(rand.NewSource(6))
	b := graph.NewBuilder(gnu.NumNodes(), true)
	for _, e := range gnu.Edges() {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		b.AddEdge(e.U, e.V)
	}
	directed := b.Build()
	corpora = append(corpora, corpus{"GNU directed", directed, true, sample(directed), false, 0})
	// Disjoint edges, then a path: in node order, node 8's tree, of
	// height 3, comes after eight of height 1.
	b = graph.NewBuilder(12, false)
	for _, e := range [][2]graph.NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {9, 10}, {10, 11}} {
		b.AddEdge(e[0], e[1])
	}
	corpora = append(corpora, corpus{"tall after short", b.Build(), false, []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}, false, 0})
	// Node 1 is a hub of leaves beside node 0, and nodes 0 and 2 root
	// trees whose level 1 is the hub; a pair of nodes past it root small
	// trees.
	hub := func(leaves int) *graph.Graph {
		b := graph.NewBuilder(leaves+4, false)
		b.AddEdge(0, 1)
		for v := range leaves {
			b.AddEdge(1, graph.NodeID(v+2))
		}
		b.AddEdge(graph.NodeID(leaves+2), graph.NodeID(leaves+3))
		return b.Build()
	}
	corpora = append(corpora,
		corpus{"hub of 300", hub(300), false, []graph.NodeID{0, 2, 302, 303}, true, 2},
		corpus{"hub of 65 536", hub(65536), false, []graph.NodeID{0, 65538, 65539}, false, 4})

	for _, c := range corpora {
		items := ned.BuildItems(c.g, c.nodes, 3, c.directed, 2)
		dict := tree.NewInterner()
		if c.seeded {
			dict = chainInterner(t, 1<<16+3)
		}
		ned.ProfileItems(items, dict, 1)
		if !c.directed {
			// A tree in level order but not BFS order: node 3 hangs under
			// node 2, node 4 under node 1.
			tr := tree.MustNew([]int32{-1, 0, 0, 2, 1})
			items = append(items, ned.Item{Node: graph.NodeID(c.g.NumNodes()), K: 3, Out: tr, OutP: dict.Profile(tr)})
		}
		built := ned.RowsOf(items)
		want, wantOrd, wantByNode := ned.BaseBlock(ned.NewScan(built, 1))
		if c.width != 0 && want.Out.Degs.Width != c.width {
			t.Fatalf("%s: degree runs built at %d bytes a count, want %d", c.name, want.Out.Degs.Width, c.width)
		}
		if c.seeded && slices.Max(tree.DecodeWords(nil, want.Out.Words)) < 1<<16 {
			t.Fatalf("%s: no stored label reaches 2^16", c.name)
		}
		for _, n := range []int{1, 2, 16} {
			tables := make([][]ned.Item, n)
			for i := range built.Len() {
				it := built.Item(i)
				tables[ned.ShardOf(it.Node, n)] = append(tables[ned.ShardOf(it.Node, n)], it)
			}
			var buf bytes.Buffer
			meta := segment.Meta{Backend: "pruned", K: 3, Directed: c.directed}
			if err := segment.Write(&buf, meta, dict, nil, tables, nil); err != nil {
				t.Fatal(err)
			}
			_, rows, _, _, err := segment.ReadRows(&buf)
			if err != nil {
				t.Fatalf("%s, %d tables: %v", c.name, n, err)
			}
			got, ord, byNode := ned.BaseBlock(ned.NewScan(rows, 1))
			what := fmt.Sprintf("%s, %d tables", c.name, n)
			same(t, what+": nodes", got.Nodes, want.Nodes)
			same(t, what+": ranks", ord, wantOrd)
			same(t, what+": node list", byNode, wantByNode)
			sameArena(t, what+": out", got.Out, want.Out)
			if c.directed {
				sameArena(t, what+": in", got.In, want.In)
			} else if got.In != nil {
				t.Errorf("%s: an undirected load has in-trees", what)
			}
		}
	}
}

// chainInterner is a dictionary whose first n shapes are a chain —
// shape i's one kid is shape i-1 — so every other shape interned in it
// gets a label of at least n.
func chainInterner(t *testing.T, n int) *tree.Interner {
	t.Helper()
	off := make([]int32, n+1)
	kids := make([]int32, 0, n)
	for id := 1; id < n; id++ {
		off[id+1] = off[id] + 1
		kids = append(kids, int32(id-1))
	}
	in, err := tree.NewInternerFromKids(off, kids)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameArena compares two arenas' rows column for column.
func sameArena(t *testing.T, what string, got, want *tree.ProfileArena) {
	t.Helper()
	if got.N != want.N || got.Width != want.Width {
		t.Fatalf("%s: %d rows at width %d, want %d at %d", what, got.N, got.Width, want.N, want.Width)
	}
	same(t, what+" sizes", got.Sizes, want.Sizes)
	same(t, what+" levels", got.Levels, want.Levels)
	if got.Degs.Width != want.Degs.Width {
		t.Fatalf("%s: degree runs %d bytes a count, want %d", what, got.Degs.Width, want.Degs.Width)
	}
	same(t, what+" degree runs", got.Degs.U8, want.Degs.U8)
	same(t, what+" degree runs", got.Degs.U16, want.Degs.U16)
	same(t, what+" degree runs", got.Degs.I32, want.Degs.I32)
	same(t, what+" degree offsets", got.DegOff, want.DegOff)
	same(t, what+" stored trees", got.Words, want.Words)
	same(t, what+" stored offsets", got.WordOff, want.WordOff)
}

func same[T any](t *testing.T, what string, got, want []T) {
	t.Helper()
	if !reflect.DeepEqual(slices.Clip(got), slices.Clip(want)) {
		t.Fatalf("%s differ:\n got %v\nwant %v", what, got, want)
	}
}
