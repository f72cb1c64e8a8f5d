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
// parent vector stored); and a tall row that a table holds after short
// ones.
func TestLoadedBlockEqualsBuilt(t *testing.T) {
	type corpus struct {
		name     string
		g        *graph.Graph
		directed bool
		nodes    []graph.NodeID
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
		corpora = append(corpora, corpus{string(name), g, false, sample(g)})
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
	corpora = append(corpora, corpus{"GNU directed", directed, true, sample(directed)})
	// Disjoint edges, then a path: in node order, node 8's tree, of
	// height 3, comes after eight of height 1.
	b = graph.NewBuilder(12, false)
	for _, e := range [][2]graph.NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {9, 10}, {10, 11}} {
		b.AddEdge(e[0], e[1])
	}
	corpora = append(corpora, corpus{"tall after short", b.Build(), false, []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}})

	for _, c := range corpora {
		items := ned.BuildItems(c.g, c.nodes, 3, c.directed, 2)
		dict := tree.NewInterner()
		ned.ProfileItems(items, dict, 1)
		if !c.directed {
			// A tree in level order but not BFS order: node 3 hangs under
			// node 2, node 4 under node 1.
			tr := tree.MustNew([]int32{-1, 0, 0, 2, 1})
			items = append(items, ned.Item{Node: graph.NodeID(c.g.NumNodes()), K: 3, Out: tr, OutP: dict.Profile(tr)})
		}
		built := ned.RowsOf(items)
		want, wantOrd, wantByNode := ned.BaseBlock(ned.NewScan(built, 1))
		for _, n := range []int{1, 2, 16} {
			tables := make([][]ned.Row, n)
			for i := range built.Len() {
				r := built.Row(i)
				tables[ned.ShardOf(r.Node, n)] = append(tables[ned.ShardOf(r.Node, n)], r)
			}
			var buf bytes.Buffer
			meta := segment.Meta{Backend: "pruned", K: 3, Directed: c.directed}
			if err := segment.WriteRows(&buf, meta, dict, nil, tables); err != nil {
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

// sameArena compares two arenas' rows column for column.
func sameArena(t *testing.T, what string, got, want *tree.ProfileArena) {
	t.Helper()
	if got.N != want.N || got.Width != want.Width {
		t.Fatalf("%s: %d rows at width %d, want %d at %d", what, got.N, got.Width, want.N, want.Width)
	}
	same(t, what+" sizes", got.Sizes, want.Sizes)
	same(t, what+" levels", got.Levels, want.Levels)
	same(t, what+" degree runs", got.Degs, want.Degs)
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
