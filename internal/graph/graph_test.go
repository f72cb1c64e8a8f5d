package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Degree(3) != 0 {
		t.Errorf("isolated node degree = %d, want 0", g.Degree(3))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge must be visible from both endpoints")
	}
	if g.HasEdge(0, 3) {
		t.Error("phantom edge 0-3")
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("self loop must be dropped; degree(2) = %d", g.Degree(2))
	}
}

func TestBuilderGrowsNodeCount(t *testing.T) {
	b := NewBuilder(0, false)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Errorf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestDirectedAdjacency(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 1)
	g := b.Build()
	if !g.Directed() {
		t.Fatal("graph should be directed")
	}
	if g.Degree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("node 0: out %d in %d, want 2/0", g.Degree(0), g.InDegree(0))
	}
	if g.InDegree(1) != 2 {
		t.Errorf("InDegree(1) = %d, want 2", g.InDegree(1))
	}
	in := g.InNeighbors(1)
	want := []NodeID{0, 2}
	if len(in) != 2 || in[0] != want[0] || in[1] != want[1] {
		t.Errorf("InNeighbors(1) = %v, want %v", in, want)
	}
}

func TestDirectedEdgesBothOrientationsKept(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Errorf("directed antiparallel edges: NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(30, false)
	for i := 0; i < 100; i++ {
		b.AddEdge(NodeID(rng.Intn(30)), NodeID(rng.Intn(30)))
	}
	g := b.Build()
	g2 := FromEdges(g.NumNodes(), g.Edges())
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), g2.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		a, b := g.Neighbors(NodeID(v)), g2.Neighbors(NodeID(v))
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
}

// Build fills adjacency lists in canonical edge order and never sorts
// them: every list, out and in, directed or not, must come out sorted.
func TestNeighborsSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		directed := rng.Intn(2) == 0
		b := NewBuilder(n, directed)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			ns := g.Neighbors(NodeID(v))
			if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
				return false
			}
			if directed {
				ns = g.InNeighbors(NodeID(v))
				if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDepthsOnPath(t *testing.T) {
	g := pathGraph(6)
	res := BFS(g, 0, -1, Outgoing)
	for v := 0; v < 6; v++ {
		if res.Depth[v] != int32(v) {
			t.Errorf("Depth[%d] = %d, want %d", v, res.Depth[v], v)
		}
	}
	if res.Parent[0] != -1 {
		t.Errorf("root parent = %d, want -1", res.Parent[0])
	}
}

func TestBFSMaxDepth(t *testing.T) {
	g := pathGraph(10)
	res := BFS(g, 0, 3, Outgoing)
	if len(res.Order) != 4 {
		t.Errorf("order length = %d, want 4 (root + 3 levels)", len(res.Order))
	}
	if res.Depth[5] != -1 {
		t.Errorf("node beyond maxDepth should be unreached")
	}
}

func TestBFSDirectedDirections(t *testing.T) {
	// 0 -> 1 -> 2 and 3 -> 1.
	b := NewBuilder(4, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 1)
	g := b.Build()
	out := BFS(g, 0, -1, Outgoing)
	if out.Depth[2] != 2 || out.Depth[3] != -1 {
		t.Errorf("outgoing BFS wrong: %v", out.Depth)
	}
	in := BFS(g, 1, -1, Incoming)
	if in.Depth[0] != 1 || in.Depth[3] != 1 || in.Depth[2] != -1 {
		t.Errorf("incoming BFS wrong: %v", in.Depth)
	}
}

// TestBFSWorkspaceMatchesBFS pins the sparse traversal to the dense one
// — same visitation order, level starts and child offsets that put every
// node at its depth under its parent, unbounded and bounded — including across a wrap of the generation counter, where
// every stale stamp must be cleared rather than read as visited.
func TestBFSWorkspaceMatchesBFS(t *testing.T) {
	g := pathGraph(9)
	var w BFSWorkspace
	for _, wrap := range []bool{false, true} {
		for _, maxDepth := range []int{-1, 0, 2, 20} {
			for root := NodeID(0); root < 9; root++ {
				if wrap {
					// Stamps left by generation 1, the counter about to wrap
					// back to it.
					w.seen = []uint8{1, 1, 1, 1, 1, 1, 1, 1, 1}
					w.gen = ^uint8(0)
				}
				want := BFS(g, root, maxDepth, Outgoing)
				shapeChild, shapeLevel := w.Shape(g, root, maxDepth, Outgoing)
				shapeChild, shapeLevel = slices.Clone(shapeChild), slices.Clone(shapeLevel)
				if wrap {
					w.seen = []uint8{1, 1, 1, 1, 1, 1, 1, 1, 1}
					w.gen = ^uint8(0)
				}
				childOff, levelOff, order := w.Tree(g, root, maxDepth, Outgoing)
				if !slices.Equal(shapeChild, childOff) || !slices.Equal(shapeLevel, levelOff) {
					t.Fatalf("wrap %v root %d maxDepth %d: Shape gives %v %v, Tree %v %v",
						wrap, root, maxDepth, shapeChild, shapeLevel, childOff, levelOff)
				}
				height := len(levelOff) - 2
				if len(order) != len(want.Order) || int32(height) != want.Depth[order[len(order)-1]] ||
					len(childOff) != int(levelOff[height])+1 {
					t.Fatalf("wrap %v root %d maxDepth %d: %d nodes to height %d, want %v", wrap, root, maxDepth, len(order), height, want.Order)
				}
				d, p := 0, 0 // position i's depth and parent
				for i, v := range order {
					for int32(i) >= levelOff[d+1] {
						d++
					}
					for i > 0 && int32(i-1) >= childOff[p+1] {
						p++
					}
					if v != want.Order[i] || want.Depth[v] != int32(d) || (i > 0 && order[p] != want.Parent[v]) {
						t.Fatalf("wrap %v root %d maxDepth %d: order %v child offsets %v level starts %v, want %v",
							wrap, root, maxDepth, order, childOff, levelOff, want.Order)
					}
				}
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comp, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("component count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3,4 should share a component")
	}
	if comp[5] == comp[6] {
		t.Error("isolated nodes should be distinct components")
	}
	lc := LargestComponent(g)
	if len(lc) != 3 {
		t.Errorf("largest component size = %d, want 3", len(lc))
	}
}

func TestKHopSubgraph(t *testing.T) {
	// Star of 4 leaves plus a 2-hop tail.
	b := NewBuilder(7, false)
	for i := 1; i <= 4; i++ {
		b.AddEdge(0, NodeID(i))
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	sub, root, back := KHopSubgraph(g, 0, 1)
	if root != 0 {
		t.Errorf("root remapped to %d, want 0", root)
	}
	if sub.NumNodes() != 5 {
		t.Errorf("1-hop subgraph has %d nodes, want 5", sub.NumNodes())
	}
	if back[0] != 0 {
		t.Errorf("back-mapping of root = %d, want 0", back[0])
	}
	// The 1-hop induced subgraph keeps only star edges.
	if sub.NumEdges() != 4 {
		t.Errorf("1-hop subgraph has %d edges, want 4", sub.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := pathGraph(8)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed graph: %v -> %v", g, g2)
	}
}

func TestReadEdgeListCommentsAndRemap(t *testing.T) {
	in := strings.NewReader("# comment\n% other comment\n100 200\n200 300\n\n100 300\n")
	g, orig, err := ReadEdgeList(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v, want 3 nodes 3 edges", g)
	}
	if orig[0] != 100 || orig[1] != 200 || orig[2] != 300 {
		t.Errorf("remap table = %v", orig)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n"), false); err == nil {
		t.Error("want error for single-field line")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Error("want error for non-numeric node")
	}
}

func TestAvgAndMaxDegree(t *testing.T) {
	g := pathGraph(4) // degrees 1,2,2,1
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
}

func TestStringer(t *testing.T) {
	if s := pathGraph(3).String(); !strings.Contains(s, "3 nodes") {
		t.Errorf("String() = %q", s)
	}
}

// Patch applied to a version's EdgeDiff reproduces the next version,
// whether the node count grows, shrinks or stays, for both
// directednesses; applying the edit again changes nothing.
func TestPatchReplaysEdgeDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := func(n, m int, directed bool) *Graph {
		b := NewBuilder(n, directed)
		for i := 0; i < m; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		return b.Build()
	}
	same := func(a, b *Graph) bool {
		return a.NumNodes() == b.NumNodes() && a.Directed() == b.Directed() &&
			fmt.Sprint(a.Edges()) == fmt.Sprint(b.Edges())
	}
	for _, directed := range []bool{false, true} {
		for _, n2 := range []int{30, 24, 37} {
			a, b := random(30, 70, directed), random(n2, 70, directed)
			removed, added := EdgeDiff(a, b)
			var kept []Edge
			for _, e := range removed {
				if int(e.U) < n2 && int(e.V) < n2 {
					kept = append(kept, e)
				}
			}
			got := Patch(a, n2, kept, added)
			if !same(got, b) {
				t.Fatalf("directed=%v n=30→%d: patched graph differs from the target", directed, n2)
			}
			if again := Patch(got, n2, kept, added); !same(again, b) {
				t.Fatalf("directed=%v n=30→%d: a second application changed the graph", directed, n2)
			}
		}
	}
}
