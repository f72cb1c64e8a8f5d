package ned

import (
	"math/rand"
	"testing"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func TestDistanceIdenticalNeighborhoods(t *testing.T) {
	// Interior nodes of long paths in two different graphs have
	// isomorphic k-adjacent trees for small k.
	g1 := lineGraph(20)
	g2 := lineGraph(30)
	if d := Distance(g1, 10, g2, 15, 3); d != 0 {
		t.Errorf("interior path nodes: distance = %d, want 0", d)
	}
	// An endpoint differs from an interior node.
	if d := Distance(g1, 0, g2, 15, 3); d == 0 {
		t.Error("endpoint vs interior should differ")
	}
}

func TestDistanceMatchesSignatureDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g1 := randomGraph(rng, 60, 150)
	g2 := randomGraph(rng, 60, 150)
	for i := 0; i < 50; i++ {
		u := graph.NodeID(rng.Intn(60))
		v := graph.NodeID(rng.Intn(60))
		want := Distance(g1, u, g2, v, 3)
		got := Between(NewSignature(g1, u, 3), NewSignature(g2, v, 3))
		if got != want {
			t.Fatalf("pair %d: signature distance %d != direct %d", i, got, want)
		}
	}
}

func TestDistanceSymmetricAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g1 := randomGraph(rng, 50, 120)
	g2 := randomGraph(rng, 50, 120)
	for i := 0; i < 50; i++ {
		u := graph.NodeID(rng.Intn(50))
		v := graph.NodeID(rng.Intn(50))
		if d1, d2 := Distance(g1, u, g2, v, 3), Distance(g2, v, g1, u, 3); d1 != d2 {
			t.Fatalf("pair %d: asymmetric %d vs %d", i, d1, d2)
		}
	}
}

func TestDistanceDirected(t *testing.T) {
	// Star pointing out vs star pointing in: outgoing trees differ,
	// incoming trees differ, both contribute.
	bOut := graph.NewBuilder(4, true)
	bOut.AddEdge(0, 1)
	bOut.AddEdge(0, 2)
	bOut.AddEdge(0, 3)
	gOut := bOut.Build()
	bIn := graph.NewBuilder(4, true)
	bIn.AddEdge(1, 0)
	bIn.AddEdge(2, 0)
	bIn.AddEdge(3, 0)
	gIn := bIn.Build()

	if d := DistanceDirected(gOut, 0, gOut, 0, 2); d != 0 {
		t.Errorf("self comparison = %d, want 0", d)
	}
	d := DistanceDirected(gOut, 0, gIn, 0, 2)
	// Outgoing trees: star(3) vs single node -> 3; incoming symmetric -> 3.
	if d != 6 {
		t.Errorf("out-star vs in-star = %d, want 6", d)
	}
	// Undirected equivalence: directed NED on undirected graphs = 2x NED.
	g := lineGraph(10)
	if d, u := DistanceDirected(g, 2, g, 5, 2), Distance(g, 2, g, 5, 2); d != 2*u {
		t.Errorf("directed on undirected = %d, want 2*%d", d, u)
	}
}

func TestWeightedDistanceUnitEqualsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g1 := randomGraph(rng, 40, 100)
	g2 := randomGraph(rng, 40, 100)
	for i := 0; i < 30; i++ {
		u := graph.NodeID(rng.Intn(40))
		v := graph.NodeID(rng.Intn(40))
		want := float64(Distance(g1, u, g2, v, 2))
		if got := WeightedDistance(g1, u, g2, v, 2, ted.UnitWeights{}); got != want {
			t.Fatalf("pair %d: weighted %v != %v", i, got, want)
		}
	}
}

func TestNearestSetAllMinima(t *testing.T) {
	g := lineGraph(30)
	query := NewSignature(g, 15, 2)
	var nodes []graph.NodeID
	for v := 0; v < 30; v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	cands := Signatures(g, nodes, 2)
	nn := NearestSet(query, cands)
	if len(nn) == 0 {
		t.Fatal("empty nearest set")
	}
	// Every interior node has distance 0 to the query; the set must
	// contain all of them and nothing farther.
	for _, n := range nn {
		if n.Dist != 0 {
			t.Errorf("nearest set contains non-minimal distance %d", n.Dist)
		}
	}
	// Interior nodes 2..27 share the same 2-adjacent tree shape.
	if len(nn) != 26 {
		t.Errorf("nearest set size = %d, want 26 interior nodes", len(nn))
	}
}

func TestTopLOrderingAndTies(t *testing.T) {
	g := lineGraph(12)
	query := NewSignature(g, 6, 2)
	var nodes []graph.NodeID
	for v := 0; v < 12; v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	cands := Signatures(g, nodes, 2)
	top := TopL(query, cands, 5)
	if len(top) != 5 {
		t.Fatalf("TopL returned %d results", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Dist < top[i-1].Dist {
			t.Error("TopL not sorted by distance")
		}
		if top[i].Dist == top[i-1].Dist && top[i].Node < top[i-1].Node {
			t.Error("TopL ties not broken by node ID")
		}
	}
	if ties := Ties(top); ties == 0 {
		t.Error("interior path nodes should produce ties at k=2")
	}
	// l larger than candidates.
	if all := TopL(query, cands, 100); len(all) != 12 {
		t.Errorf("oversized l returned %d", len(all))
	}
}

func TestMonotonicityAcrossK(t *testing.T) {
	// §10 in its NED form: distances should (statistically) not decrease
	// with k. Tie artifacts allow rare dips; assert the aggregate trend.
	rng := rand.New(rand.NewSource(4))
	g1 := randomGraph(rng, 80, 160)
	g2 := randomGraph(rng, 80, 160)
	violations, trials := 0, 0
	for i := 0; i < 60; i++ {
		u := graph.NodeID(rng.Intn(80))
		v := graph.NodeID(rng.Intn(80))
		prev := -1
		for k := 1; k <= 4; k++ {
			d := Distance(g1, u, g2, v, k)
			if prev >= 0 && d < prev {
				violations++
				break
			}
			prev = d
		}
		trials++
	}
	if violations > trials/10 {
		t.Errorf("monotonicity violated in %d/%d sweeps", violations, trials)
	}
}

func TestHausdorffBasics(t *testing.T) {
	g1 := lineGraph(10)
	g2 := lineGraph(10)
	if h := Hausdorff(g1, g2, 2); h != 0 {
		t.Errorf("identical graphs: H = %d, want 0", h)
	}
	// A line and a star differ structurally.
	b := graph.NewBuilder(10, false)
	for i := 1; i < 10; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	star := b.Build()
	if h := Hausdorff(g1, star, 2); h == 0 {
		t.Error("line vs star: H should be positive")
	}
	// Symmetry.
	if Hausdorff(g1, star, 2) != Hausdorff(star, g1, 2) {
		t.Error("Hausdorff must be symmetric")
	}
}

func TestHausdorffSampled(t *testing.T) {
	g1 := lineGraph(40)
	g2 := lineGraph(50)
	nodes1 := []graph.NodeID{10, 20, 30}
	nodes2 := []graph.NodeID{15, 25, 35}
	if h := HausdorffSampled(g1, nodes1, g2, nodes2, 2); h != 0 {
		t.Errorf("interior samples of two lines: H = %d, want 0", h)
	}
}

// bruteHausdorff is Definition 9 read literally: the larger of the two
// max–min TED* distances, every pair evaluated in full. An empty side
// has no minimum and adds 0.
func bruteHausdorff(sa, sb []Signature) int {
	directed := func(from, to []Signature) int {
		worst := 0
		for _, a := range from {
			best := -1
			for _, b := range to {
				if d := ted.Distance(a.Tree, b.Tree); best < 0 || d < best {
					best = d
				}
			}
			worst = max(worst, best)
		}
		return worst
	}
	return max(directed(sa, sb), directed(sb, sa))
}

// TestHausdorffMatchesDefinition pins Hausdorff and HausdorffSampled,
// one cascade sweep per node, to the brute-force max–min of
// ted.Distance: over seeded graph pairs, in both argument orders, on
// sampled subsets, and with one sample empty, which gives 0.
func TestHausdorffMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		ga := randomGraph(rng, 30+5*trial, 60+10*trial)
		gb := randomGraph(rng, 25+5*trial, 70)
		k := 2 + trial%2
		want := bruteHausdorff(allSignatures(ga, k), allSignatures(gb, k))
		if ab, ba := Hausdorff(ga, gb, k), Hausdorff(gb, ga, k); ab != want || ba != want {
			t.Errorf("trial %d: Hausdorff %d / swapped %d, definition %d", trial, ab, ba, want)
		}
		var na, nb []graph.NodeID
		for _, v := range rng.Perm(ga.NumNodes())[:9] {
			na = append(na, graph.NodeID(v))
		}
		for _, v := range rng.Perm(gb.NumNodes())[:6] {
			nb = append(nb, graph.NodeID(v))
		}
		want = bruteHausdorff(Signatures(ga, na, k), Signatures(gb, nb, k))
		if ab, ba := HausdorffSampled(ga, na, gb, nb, k), HausdorffSampled(gb, nb, ga, na, k); ab != want || ba != want {
			t.Errorf("trial %d: HausdorffSampled %d / swapped %d, definition %d", trial, ab, ba, want)
		}
		if h := HausdorffSampled(ga, nil, gb, nb, k); h != 0 || bruteHausdorff(nil, Signatures(gb, nb, k)) != 0 {
			t.Errorf("trial %d: an empty sample gives %d, want 0", trial, h)
		}
	}
}

func TestSignatureTreeMatchesKAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 50, 120)
	sig := NewSignature(g, 7, 3)
	want, _ := tree.KAdjacent(g, 7, 3)
	if !tree.Isomorphic(sig.Tree, want) {
		t.Error("signature tree differs from KAdjacent extraction")
	}
	if sig.Node != 7 || sig.K != 3 {
		t.Errorf("signature metadata wrong: %+v", sig)
	}
}
