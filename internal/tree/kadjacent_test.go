package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ned/internal/graph"
)

// denseKAdjacent is the extraction kAdjacent replaced, kept as the
// oracle: graph.BFS over |V|-sized arrays, then a map from graph node
// to visitation position to renumber the parents.
func denseKAdjacent(g *graph.Graph, v graph.NodeID, k int, dir graph.EdgeDirection) ([]int32, []graph.NodeID) {
	res := graph.BFS(g, v, k, dir)
	newID := make(map[graph.NodeID]int32, len(res.Order))
	for i, u := range res.Order {
		newID[u] = int32(i)
	}
	parent := make([]int32, len(res.Order))
	parent[0] = -1
	for i := 1; i < len(res.Order); i++ {
		parent[i] = newID[res.Parent[res.Order[i]]]
	}
	return parent, res.Order
}

// kadjTestGraphs is a mix of directed and undirected random graphs of
// different sizes, each with a tail of isolated nodes.
func kadjTestGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(13))
	var out []*graph.Graph
	for i, n := range []int{200, 7, 60, 1, 120, 30} {
		b := graph.NewBuilder(n, i%2 == 1)
		wired := max(1, n*4/5) // the rest stay isolated
		for range 3 * n {
			b.AddEdge(graph.NodeID(rng.Intn(wired)), graph.NodeID(rng.Intn(wired)))
		}
		out = append(out, b.Build())
	}
	return out
}

// checkKAdjacent compares every k-adjacent extraction of g — k = 0…4,
// both directions, with and without the node mapping — to the dense
// oracle: the same parent vector and the same visitation order.
func checkKAdjacent(g *graph.Graph) error {
	for v := 0; v < g.NumNodes(); v++ {
		for k := 0; k <= 4; k++ {
			for _, dir := range []graph.EdgeDirection{graph.Outgoing, graph.Incoming} {
				wantParent, wantOrder := denseKAdjacent(g, graph.NodeID(v), k, dir)
				var got *Tree
				var order []graph.NodeID
				if dir == graph.Incoming {
					got, order = KAdjacentIncoming(g, graph.NodeID(v), k)
				} else {
					got, order = KAdjacent(g, graph.NodeID(v), k)
				}
				if !slices.Equal(got.ParentVector(), wantParent) || !slices.Equal(order, wantOrder) {
					return fmt.Errorf("%v node %d k=%d dir=%d: parent %v order %v, dense BFS gives %v %v",
						g, v, k, dir, got.ParentVector(), order, wantParent, wantOrder)
				}
				if bare := Extract(g, graph.NodeID(v), k, dir); !slices.Equal(bare.ParentVector(), wantParent) {
					return fmt.Errorf("%v node %d k=%d dir=%d: Extract differs from the dense BFS", g, v, k, dir)
				}
			}
		}
	}
	return nil
}

// TestKAdjacentMatchesDenseBFS pins that the pooled sparse extraction
// returns bit-identical trees to the dense graph.BFS it replaced, on
// directed and undirected graphs with isolated nodes, k = 0…4, both
// directions: once sequentially (pooled workspaces walking graphs of
// growing and shrinking |V| in turn), once from 8 goroutines at once,
// and through one explicit workspace reused across every graph.
func TestKAdjacentMatchesDenseBFS(t *testing.T) {
	graphs := kadjTestGraphs()
	for _, g := range graphs {
		if err := checkKAdjacent(g); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range graphs {
				g := graphs[(i+w)%len(graphs)]
				if err := checkKAdjacent(g); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var ws graph.BFSWorkspace
	for _, g := range graphs {
		for v := 0; v < g.NumNodes(); v++ {
			wantParent, wantOrder := denseKAdjacent(g, graph.NodeID(v), 3, graph.Outgoing)
			childOff, levelOff, order := ws.Tree(g, graph.NodeID(v), 3, graph.Outgoing)
			got := NewBFS(slices.Clone(childOff), slices.Clone(levelOff))
			if !slices.Equal(got.ParentVector(), wantParent) || !slices.Equal(order, wantOrder) {
				t.Fatalf("%v node %d: reused workspace diverged from the dense BFS", g, v)
			}
			if want := MustNew(wantParent).Height(); got.Height() != want {
				t.Fatalf("%v node %d: height %d, want %d", g, v, got.Height(), want)
			}
		}
	}
}

// TestExtractMatchesNewOfBFS pins Extract, which builds its tree from
// the traversal's level starts and child counts, to New over the parent
// vector of the same BFS: the same level starts, child offsets and
// child IDs, in BFS order, on every node of every test graph, k = 0…4,
// both directions.
func TestExtractMatchesNewOfBFS(t *testing.T) {
	for _, g := range kadjTestGraphs() {
		for v := range g.NumNodes() {
			for k := 0; k <= 4; k++ {
				for _, dir := range []graph.EdgeDirection{graph.Outgoing, graph.Incoming} {
					parent, _ := denseKAdjacent(g, graph.NodeID(v), k, dir)
					want, got := MustNew(parent), Extract(g, graph.NodeID(v), k, dir)
					if !got.BFSOrder() || got.parent != nil || !slices.Equal(got.levelOff, want.levelOff) ||
						!slices.Equal(got.childOff, want.childOff) || !slices.Equal(got.childIDs, want.childIDs) {
						t.Fatalf("%v node %d k=%d dir=%d: Extract gives levels %v children %v, New %v %v",
							g, v, k, dir, got.levelOff, got.childOff, want.levelOff, want.childOff)
					}
				}
			}
		}
	}
}
