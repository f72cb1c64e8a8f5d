package ned_test

import (
	"context"
	"fmt"

	"ned"
)

// Two tiny fixture graphs: a path and a star, so structural differences
// are obvious.
func fixtures() (*ned.Graph, *ned.Graph) {
	bp := ned.NewGraphBuilder(5, false)
	for i := 0; i < 4; i++ {
		bp.AddEdge(ned.NodeID(i), ned.NodeID(i+1))
	}
	bs := ned.NewGraphBuilder(5, false)
	for i := 1; i < 5; i++ {
		bs.AddEdge(0, ned.NodeID(i))
	}
	return bp.Build(), bs.Build()
}

func ExampleDistance() {
	path, star := fixtures()
	// The middle of a path against the center of a star, comparing two
	// levels of neighborhood: delete the two depth-2 leaves, insert two
	// depth-1 leaves.
	fmt.Println(ned.Distance(path, 2, star, 0, 2))
	// Against another path interior node: identical neighborhoods.
	fmt.Println(ned.Distance(path, 2, path, 2, 2))
	// Output:
	// 4
	// 0
}

func ExampleTEDStarReport() {
	path, star := fixtures()
	t1 := ned.KAdjacentTree(path, 2, 2)
	t2 := ned.KAdjacentTree(star, 0, 2)
	rep := ned.TEDStarReport(t1, t2)
	fmt.Println("distance:", rep.Distance)
	for _, lc := range rep.Levels {
		fmt.Printf("depth %d: pad %d, move %d\n", lc.Depth, lc.Padding, lc.Matching)
	}
	// Output:
	// distance: 4
	// depth 0: pad 0, move 0
	// depth 1: pad 2, move 0
	// depth 2: pad 2, move 0
}

func ExampleTopL() {
	path, star := fixtures()
	query := ned.NewSignature(path, 2, 1) // path interior: degree 2
	var nodes []ned.NodeID
	for v := 0; v < star.NumNodes(); v++ {
		nodes = append(nodes, ned.NodeID(v))
	}
	candidates := ned.Signatures(star, nodes, 1)
	for _, n := range ned.TopL(query, candidates, 2) {
		fmt.Printf("node %d at distance %d\n", n.Node, n.Dist)
	}
	// Output:
	// node 1 at distance 1
	// node 2 at distance 1
}

func ExampleNewCorpus() {
	path, star := fixtures()
	// A Corpus serves similarity queries over one graph's nodes; the
	// query arrives as a signature from any graph.
	corpus, err := ned.NewCorpus(star, 1)
	if err != nil {
		panic(err)
	}
	query := ned.NewSignature(path, 2, 1) // path interior: degree 2
	top, err := corpus.KNNSignature(context.Background(), query, 2)
	if err != nil {
		panic(err)
	}
	for _, n := range top {
		fmt.Printf("node %d at distance %d\n", n.Node, n.Dist)
	}
	// Output:
	// node 1 at distance 1
	// node 2 at distance 1
}

func ExampleCorpus_NearestSet() {
	path, star := fixtures()
	corpus, err := ned.NewCorpus(star, 1)
	if err != nil {
		panic(err)
	}
	// Every spoke of the star ties at distance 1 from a path interior
	// node: the nearest "neighbor" is a 4-node set (§13.3).
	query := ned.NewSignature(path, 2, 1)
	nearest, err := corpus.NearestSet(context.Background(), query)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(nearest), "nodes at distance", nearest[0].Dist)
	// Output:
	// 4 nodes at distance 1
}

func ExampleTEDStarLowerBound() {
	path, star := fixtures()
	t1 := ned.KAdjacentTree(path, 0, 3)
	t2 := ned.KAdjacentTree(star, 0, 3)
	fmt.Println("bound:", ned.TEDStarLowerBound(t1, t2), "<= distance:", ned.TEDStar(t1, t2))
	// Output:
	// bound: 5 <= distance: 5
}

func ExampleSimRankInterGraph() {
	path, star := fixtures()
	// Link-based similarity is identically zero across graphs — the
	// paper's §2 argument, executable.
	fmt.Println(ned.SimRankInterGraph(path, 0, star, 0))
	// Output:
	// 0
}
