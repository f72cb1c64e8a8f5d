package ned

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/tree"
)

// profileRows is the build path BuildRows replaced, kept as its oracle:
// extract each node's trees (BuildItems), profile them in node order
// against dict — the out-tree before the in-tree — and compile the
// profiled items into rows (RowsOf).
func profileRows(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner) *Rows {
	items := BuildItems(g, nodes, k, directed, 1)
	for i := range items {
		items[i].OutP = dict.Profile(items[i].Out)
		if directed {
			items[i].InP = dict.Profile(items[i].In)
		}
	}
	return RowsOf(items)
}

// sameRows fails t unless got and want hold the same rows, column for
// column, byte for byte.
func sameRows(t *testing.T, name string, got, want *Rows) {
	t.Helper()
	if got.K != want.K || !slices.Equal(got.Nodes, want.Nodes) || (got.In == nil) != (want.In == nil) {
		t.Fatalf("%s: k %d, %d nodes, in-trees %v; want k %d, %d nodes, in-trees %v",
			name, got.K, got.Len(), got.In != nil, want.K, want.Len(), want.In != nil)
	}
	arenas := [][2]*tree.ProfileArena{{got.Out, want.Out}}
	if want.In != nil {
		arenas = append(arenas, [2]*tree.ProfileArena{got.In, want.In})
	}
	for side, pair := range arenas {
		g, w := pair[0], pair[1]
		for _, c := range []struct {
			col       string
			got, want any
		}{
			{"N", g.N, w.N}, {"Width", g.Width, w.Width},
			{"Sizes", g.Sizes, w.Sizes}, {"Levels", g.Levels, w.Levels},
			{"Degs.Width", g.Degs.Width, w.Degs.Width}, {"Degs", g.Degs.AppendTo(nil), w.Degs.AppendTo(nil)},
			{"DegOff", g.DegOff, w.DegOff}, {"Words", g.Words, w.Words}, {"WordOff", g.WordOff, w.WordOff},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s side %d: %s differs from the profile path's", name, side, c.col)
			}
		}
	}
}

// sameDict fails t unless got and want hold the same shapes under the
// same IDs.
func sameDict(t *testing.T, name string, got, want *tree.Interner) {
	t.Helper()
	gotN, gotKeys := got.Coded()
	wantN, wantKeys := want.Coded()
	if gotN != wantN || !bytes.Equal(gotKeys, wantKeys) {
		t.Fatalf("%s: the dictionary holds %d shapes, want %d, or in another order", name, gotN, wantN)
	}
}

// rowArenas is the arenas of rows: its out-trees' and, when directed,
// its in-trees'.
func rowArenas(r *Rows) []*tree.ProfileArena {
	if r.In == nil {
		return []*tree.ProfileArena{r.Out}
	}
	return []*tree.ProfileArena{r.Out, r.In}
}

// orient is g with every edge directed one way or the other at random.
func orient(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(g.NumNodes(), true)
	for _, e := range g.Edges() {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// TestBuiltRowsMatchProfilePath pins the row builder to the path it
// replaced, on the PGP and GNU analogs at scale 0.5 and the CAR analog
// at 0.25 (5 000 nodes), undirected and with every edge oriented at
// random, at k = 1, 2 and 3. On one
// worker BuildRows gives the oracle's rows byte for byte and interns
// the same dictionary, shape for shape, and BuildRanked, on one worker
// and on two, gives the rows and dictionary of the oracle's scan base
// after the canonical pass, which NewScan adopts without a copy. A scan
// over BuildRanked's rows at two workers answers KNN queries as the
// exhaustive ranking does (ned.TopL when undirected).
func TestBuiltRowsMatchProfilePath(t *testing.T) {
	ctx := context.Background()
	for _, in := range []struct {
		name  datasets.Name
		scale float64
	}{{datasets.PGP, 0.5}, {datasets.CAR, 0.25}, {datasets.GNU, 0.5}} {
		name := in.name
		und := datasets.MustGenerate(name, datasets.Options{Scale: in.scale, Seed: 3})
		for _, directed := range []bool{false, true} {
			g := und
			if directed {
				g = orient(und, 4)
			}
			all := make([]graph.NodeID, g.NumNodes())
			for v := range all {
				all[v] = graph.NodeID(v)
			}
			for k := 1; k <= 3; k++ {
				label := fmt.Sprintf("%s directed=%v k=%d", name, directed, k)
				wantDict := tree.NewInterner()
				want := profileRows(g, all, k, directed, wantDict)
				dict := tree.NewInterner()
				sameRows(t, label+" BuildRows", BuildRows(g, all, k, directed, dict, 1), want)
				sameDict(t, label+" BuildRows", dict, wantDict)

				// BuildRanked: the oracle's rows, canonicalized, in rank order,
				// on one worker and on two.
				canonDict := tree.NewInterner()
				canon := profileRows(g, all, k, directed, tree.NewInterner())
				canonDict.Canonicalize(rowArenas(canon), 1)
				canonBase := &NewScan(canon, 1).bblk.Rows
				for _, workers := range []int{1, 2} {
					rankedDict := tree.NewInterner()
					ranked := BuildRanked(g, all, k, directed, rankedDict, workers)
					name := fmt.Sprintf("%s BuildRanked workers=%d", label, workers)
					sameRows(t, name, ranked, canonBase)
					sameDict(t, name, rankedDict, canonDict)
					if base := NewScan(ranked, 1).bblk; base.Out != ranked.Out || !inOrder(base.ord) {
						t.Fatalf("%s: the scan copied the ranked rows instead of adopting them", name)
					}
				}

				// Answers at two workers, over every eighth node.
				var nodes []graph.NodeID
				for v := 0; v < g.NumNodes(); v += 8 {
					nodes = append(nodes, graph.NodeID(v))
				}
				dict = tree.NewInterner()
				ix := NewScan(BuildRanked(g, nodes, k, directed, dict, 2), 2)
				cands := BuildItems(g, nodes, k, directed, 1)
				for _, qi := range []int{1, len(nodes) / 2} {
					q := cands[qi]
					ProfileQueryItem(&q, dict)
					got, err := ix.KNN(ctx, q, 5)
					if err != nil {
						t.Fatal(err)
					}
					if wantNb := oracleKNN(cands, cands[qi], 5); !reflect.DeepEqual(got, wantNb) {
						t.Fatalf("%s query %d: %v, exhaustive %v", label, nodes[qi], got, wantNb)
					}
				}
			}
		}
	}
}

// TestBuiltRowsWidenDegreeRuns pins rows whose degree runs need two
// and four bytes a count to the profile path: a builder's arenas start
// at one byte a count and widen as the rows come. Node 0's tree has a
// level-1 node with 300 children and node 302's one with 70 000; nodes 3
// and 305, leaves, come first and last.
func TestBuiltRowsWidenDegreeRuns(t *testing.T) {
	b := graph.NewBuilder(70_304, false)
	b.AddEdge(0, 1)
	for v := range graph.NodeID(300) {
		b.AddEdge(1, v+2)
	}
	b.AddEdge(302, 303)
	for v := range graph.NodeID(70_000) {
		b.AddEdge(303, v+304)
	}
	g := b.Build()
	for _, nodes := range [][]graph.NodeID{{0, 3}, {0, 3, 302, 305}, {3, 302}} {
		for k := 2; k <= 3; k++ {
			label := fmt.Sprintf("nodes %v k=%d", nodes, k)
			wantDict, dict := tree.NewInterner(), tree.NewInterner()
			want := profileRows(g, nodes, k, false, wantDict)
			wide := 2
			if slices.Contains(nodes, 302) {
				wide = 4
			}
			if want.Out.Degs.Width != wide {
				t.Fatalf("%s: the oracle's degree runs take %d bytes a count, want %d", label, want.Out.Degs.Width, wide)
			}
			sameRows(t, label, BuildRows(g, nodes, k, false, dict, 1), want)
			sameDict(t, label, dict, wantDict)
		}
	}
}

// oracleKNN is the exhaustive ranking of cands for q: TopL over the
// out-trees when the items are undirected.
func oracleKNN(cands []Item, q Item, l int) []Neighbor {
	if q.In != nil {
		return exhaustiveKNN(q, cands, l)
	}
	sigs := make([]Signature, len(cands))
	for i, c := range cands {
		sigs[i] = Signature{Node: c.Node, K: c.K, Tree: c.Out}
	}
	return TopL(Signature{Node: q.Node, K: q.K, Tree: q.Out}, sigs, l)
}
