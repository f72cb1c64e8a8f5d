package ned

import (
	"context"
	"slices"

	"ned/internal/graph"
)

// Hausdorff returns the Hausdorff graph-to-graph distance of Appendix A
// (Definition 9) built on NED: H(A,B) = max(h(A,B), h(B,A)) with
// h(A,B) = max_{a∈A} min_{b∈B} δ_T(T(a,k), T(b,k)).
//
// The paper derives that H is a metric on graphs from NED being one.
// The TED* computed here (Algorithm 1) can break the triangle
// inequality, so H can too: it is symmetric and non-negative, but not
// guaranteed to be a metric. Each directed half is one cascade sweep for
// the nearest neighbor per node of its first set; sampling variants
// belong to the caller. A side with no nodes adds 0.
func Hausdorff(ga, gb *graph.Graph, k int) int {
	return hausdorffSets(allSignatures(ga, k), allSignatures(gb, k))
}

// HausdorffSampled is Hausdorff over node subsets, for large graphs.
func HausdorffSampled(ga *graph.Graph, nodesA []graph.NodeID, gb *graph.Graph, nodesB []graph.NodeID, k int) int {
	return hausdorffSets(Signatures(ga, nodesA, k), Signatures(gb, nodesB, k))
}

func allSignatures(g *graph.Graph, k int) []Signature {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return Signatures(g, nodes, k)
}

// hausdorffSets profiles both sets against one dictionary, so every
// pair compares resolved labels, and takes the larger directed half.
func hausdorffSets(sa, sb []Signature) int {
	items, _ := ProfileSignatures(slices.Concat(sa, sb))
	a, b := items[:len(sa)], items[len(sa):]
	return max(directedHausdorff(a, b), directedHausdorff(b, a))
}

// directedHausdorff is h(from, to): the largest nearest-neighbor
// distance of a from item, each one a top-1 sweep over to's block.
func directedHausdorff(from, to []Item) int {
	part := newSweepPart(to)
	worst := 0
	for _, a := range from {
		if nn, _, _ := scanKNN(context.Background(), a, []sweepPart{part}, 1); len(nn) > 0 {
			worst = max(worst, nn[0].Dist)
		}
	}
	return worst
}
