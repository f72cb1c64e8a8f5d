package baseline

import (
	"math"
	"math/rand"
	"testing"

	"ned/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

func TestHITSIdenticalGraphsSelfSimilarity(t *testing.T) {
	// On two copies of a path, the HITS similarity of structurally
	// equivalent positions should dominate: compare an interior node's
	// score against itself vs against an endpoint.
	b := graph.NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	h := NewHITSSimilarity(g, g, HITSOptions{})
	if h.Score(2, 2) <= h.Score(2, 0) {
		t.Errorf("interior-interior %v should beat interior-endpoint %v",
			h.Score(2, 2), h.Score(2, 0))
	}
	if h.Iterations() == 0 {
		t.Error("no iterations ran")
	}
}

func TestHITSMatrixIsNormalized(t *testing.T) {
	g1 := ring(6)
	g2 := ring(8)
	h := NewHITSSimilarity(g1, g2, HITSOptions{MaxIters: 10})
	var frob float64
	for b := 0; b < 8; b++ {
		for a := 0; a < 6; a++ {
			s := h.Score(graph.NodeID(b), graph.NodeID(a))
			if s < 0 {
				t.Fatalf("negative similarity %v", s)
			}
			frob += s * s
		}
	}
	if math.Abs(math.Sqrt(frob)-1) > 1e-6 {
		t.Errorf("Frobenius norm = %v, want 1", math.Sqrt(frob))
	}
}

func TestHITSEmptyGraph(t *testing.T) {
	empty := graph.NewBuilder(0, false).Build()
	h := NewHITSSimilarity(empty, ring(4), HITSOptions{})
	if s := h.Score(0, 0); s != 0 {
		t.Errorf("empty graph score = %v", s)
	}
}

func TestHITSDirected(t *testing.T) {
	// A directed 3-cycle against itself must not blow up and must stay
	// normalized.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	h := NewHITSSimilarity(g, g, HITSOptions{MaxIters: 8})
	var frob float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := h.Score(graph.NodeID(i), graph.NodeID(j))
			frob += s * s
		}
	}
	if math.Abs(math.Sqrt(frob)-1) > 1e-6 {
		t.Errorf("directed Frobenius norm = %v, want 1", math.Sqrt(frob))
	}
}

func TestRegionalFeaturesShapeAndDeterminism(t *testing.T) {
	g := ring(10)
	f0 := RegionalFeatures(g, 0, 0)
	if len(f0) != 3 {
		t.Errorf("depth 0 feature count = %d, want 3", len(f0))
	}
	f1 := RegionalFeatures(g, 0, 1)
	if len(f1) != 9 {
		t.Errorf("depth 1 feature count = %d, want 9 (3 * 3)", len(f1))
	}
	f2 := RegionalFeatures(g, 0, 2)
	if len(f2) != 27 {
		t.Errorf("depth 2 feature count = %d, want 27", len(f2))
	}
	again := RegionalFeatures(g, 0, 2)
	for i := range f2 {
		if f2[i] != again[i] {
			t.Fatal("non-deterministic features")
		}
	}
}

func TestRegionalFeaturesEquivalentNodes(t *testing.T) {
	// All ring nodes are structurally equivalent: identical features.
	g := ring(8)
	ref := RegionalFeatures(g, 0, 2)
	for v := 1; v < 8; v++ {
		f := RegionalFeatures(g, graph.NodeID(v), 2)
		if L1(ref, f) != 0 {
			t.Fatalf("ring node %d features differ from node 0", v)
		}
	}
}

func TestRegionalFeaturesAllMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(30, false)
	for i := 0; i < 80; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30)))
	}
	g := b.Build()
	all := RegionalFeaturesAll(g, 2)
	for v := 0; v < 30; v += 7 {
		single := RegionalFeatures(g, graph.NodeID(v), 2)
		if L1(all[v], single) > 1e-12 {
			t.Fatalf("node %d: batch features differ from single", v)
		}
	}
}

func TestRegionalFeaturesLocalMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(60, false)
	for i := 0; i < 150; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60)))
	}
	g := b.Build()
	for depth := 0; depth <= 2; depth++ {
		for v := 0; v < 60; v += 11 {
			global := RegionalFeatures(g, graph.NodeID(v), depth)
			local := RegionalFeaturesLocal(g, graph.NodeID(v), depth)
			if L1(global, local) > 1e-9 {
				t.Fatalf("depth %d node %d: local features diverge (L1 = %v)",
					depth, v, L1(global, local))
			}
		}
	}
}

// TestNetSimileFeaturesMatchWholeGraph checks the ego-net computation
// against the features assembled from every node's clustering
// coefficient, counted here from the triangles of an adjacency matrix,
// on every node of a small random graph.
func TestNetSimileFeaturesMatchWholeGraph(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(n, false)
	for i := 0; i < 120; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.Build()
	var adj [n][n]bool
	for _, e := range g.Edges() {
		adj[e.U][e.V], adj[e.V][e.U] = true, true
	}
	cc := make([]float64, n)
	for v := range n {
		d, tri := 0, 0
		for u := range n {
			if u == v || !adj[v][u] {
				continue
			}
			d++
			for w := u + 1; w < n; w++ {
				if w != v && adj[v][w] && adj[u][w] {
					tri++
				}
			}
		}
		if d >= 2 {
			cc[v] = 2 * float64(tri) / float64(d*(d-1))
		}
	}
	for v := range graph.NodeID(n) {
		ns := g.Neighbors(v)
		var nd, ncc float64
		for _, u := range ns {
			nd, ncc = nd+float64(g.Degree(u)), ncc+cc[u]
		}
		if len(ns) > 0 {
			nd, ncc = nd/float64(len(ns)), ncc/float64(len(ns))
		}
		in, out, nbrs := egonet(g, v)
		want := FeatureVector{float64(g.Degree(v)), cc[v], nd, ncc, float64(in), float64(out), float64(nbrs)}
		if got := NetSimileFeatures(g, v); L1(got, want) > 1e-12 {
			t.Fatalf("node %d: NetSimile features %v, whole graph %v", v, got, want)
		}
	}
}

func TestNetSimileFeatures(t *testing.T) {
	// Triangle: every node has degree 2, clustering 1.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	f := NetSimileFeatures(g, 0)
	if len(f) != 7 {
		t.Fatalf("NetSimile feature count = %d, want 7", len(f))
	}
	if f[0] != 2 {
		t.Errorf("degree = %v, want 2", f[0])
	}
	if f[1] != 1 {
		t.Errorf("clustering = %v, want 1", f[1])
	}
	if f[4] != 3 { // egonet internal edges
		t.Errorf("egonet edges = %v, want 3", f[4])
	}
	if f[5] != 0 { // no boundary
		t.Errorf("egonet boundary = %v, want 0", f[5])
	}
}

func TestL1AndL2(t *testing.T) {
	a := FeatureVector{1, 2, 3}
	b := FeatureVector{2, 2, 5}
	if d := L1(a, b); d != 3 {
		t.Errorf("L1 = %v, want 3", d)
	}
	if d := L2(a, b); math.Abs(d-math.Sqrt(5)) > 1e-12 {
		t.Errorf("L2 = %v, want sqrt(5)", d)
	}
	// Unequal lengths: excess mass counts.
	c := FeatureVector{1, 2, 3, 4}
	if d := L1(a, c); d != 4 {
		t.Errorf("L1 with excess = %v, want 4", d)
	}
	if L1(a, b) != L1(b, a) {
		t.Error("L1 must be symmetric")
	}
}

func TestFeatureBlindSpot(t *testing.T) {
	// The paper's critique (§2): feature vectors can coincide for nodes
	// whose neighborhoods differ. Two 4-cycles joined at node 0 versus an
	// 8-cycle: node degree/egonet stats at depth 0 agree for some nodes
	// even though neighborhoods differ. Just assert the distance CAN be
	// zero for non-equivalent nodes at depth 0 (documenting the
	// limitation NED fixes).
	c8 := ring(8)
	b := graph.NewBuilder(7, false)
	// Two squares sharing node 0: 0-1-2-3-0 and 0-4-5-6-0.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {4, 5}, {5, 6}, {6, 0}} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	gsq := b.Build()
	fRing := RegionalFeatures(c8, 1, 0)
	fSq := RegionalFeatures(gsq, 1, 0)
	if L1(fRing, fSq) != 0 {
		t.Skip("depth-0 features distinguish these nodes on this construction")
	}
}
