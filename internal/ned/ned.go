// Package ned implements NED, the inter-graph node metric of §3: the
// TED* distance between the unordered k-adjacent trees of two nodes that
// may live in different graphs. It also provides the directed-graph
// variant of §3.3, the weighted variant of §12, and the Hausdorff
// graph-to-graph distance of Appendix A.
package ned

import (
	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

// Distance returns δ_k(u, v) = TED*(T(u,k), T(v,k)) (Equation 1): the
// NED distance between node u of graph gu and node v of graph gv for
// neighborhood depth k. gu and gv may be the same graph.
func Distance(gu *graph.Graph, u graph.NodeID, gv *graph.Graph, v graph.NodeID, k int) int {
	tu := tree.Extract(gu, u, k, graph.Outgoing)
	tv := tree.Extract(gv, v, k, graph.Outgoing)
	return ted.Distance(tu, tv)
}

// DistanceDirected returns δ_k_D(u, v) for nodes of directed graphs
// (Equation 2): the sum of TED* over the incoming and outgoing
// k-adjacent tree pairs. Both graphs should be directed; for undirected
// graphs the result is simply 2·Distance.
func DistanceDirected(gu *graph.Graph, u graph.NodeID, gv *graph.Graph, v graph.NodeID, k int) int {
	tiu := tree.Extract(gu, u, k, graph.Incoming)
	tiv := tree.Extract(gv, v, k, graph.Incoming)
	tou := tree.Extract(gu, u, k, graph.Outgoing)
	tov := tree.Extract(gv, v, k, graph.Outgoing)
	return ted.Distance(tiu, tiv) + ted.Distance(tou, tov)
}

// WeightedDistance returns the weighted NED of §12 using the supplied
// TED* weights (nil means unit weights).
func WeightedDistance(gu *graph.Graph, u graph.NodeID, gv *graph.Graph, v graph.NodeID, k int, w ted.Weights) float64 {
	tu := tree.Extract(gu, u, k, graph.Outgoing)
	tv := tree.Extract(gv, v, k, graph.Outgoing)
	return ted.WeightedDistance(tu, tv, w)
}

// Signature is a node's precomputed k-adjacent tree. Precomputing
// signatures amortizes BFS extraction across many distance evaluations
// (every experiment in §13 does this).
type Signature struct {
	Node graph.NodeID
	K    int
	Tree *tree.Tree
}

// NewSignature extracts the k-adjacent tree signature of node v.
func NewSignature(g *graph.Graph, v graph.NodeID, k int) Signature {
	t := tree.Extract(g, v, k, graph.Outgoing)
	return Signature{Node: v, K: k, Tree: t}
}

// Signatures extracts signatures for a set of nodes.
func Signatures(g *graph.Graph, nodes []graph.NodeID, k int) []Signature {
	out := make([]Signature, len(nodes))
	for i, v := range nodes {
		out[i] = NewSignature(g, v, k)
	}
	return out
}

// Between returns the NED distance between two precomputed signatures.
// Signatures with different K are comparable in principle (TED* is
// defined on any tree pair) but the value is then the paper's
// cross-parameter distance, so callers normally keep K equal.
func Between(a, b Signature) int {
	return ted.Distance(a.Tree, b.Tree)
}

// Neighbor is a candidate node with its NED distance to a query.
type Neighbor struct {
	Node graph.NodeID
	Dist int
}

// NearestSet returns every candidate whose NED distance to the query
// signature equals the minimum distance (the "nearest neighbor result
// set" of §13.3, whose size Figure 8a reports as a function of k).
func NearestSet(query Signature, candidates []Signature) []Neighbor {
	best := -1
	var out []Neighbor
	for _, c := range candidates {
		d := ted.Distance(query.Tree, c.Tree)
		switch {
		case best == -1 || d < best:
			best = d
			out = out[:0]
			out = append(out, Neighbor{c.Node, d})
		case d == best:
			out = append(out, Neighbor{c.Node, d})
		}
	}
	return out
}

// TopL returns the l nearest candidates in ascending distance order,
// breaking distance ties by node ID for determinism. l is clamped to
// the candidate count: l <= 0 returns nothing, and l past the count
// returns every candidate.
func TopL(query Signature, candidates []Signature, l int) []Neighbor {
	all := make([]Neighbor, len(candidates))
	for i, c := range candidates {
		all[i] = Neighbor{c.Node, ted.Distance(query.Tree, c.Tree)}
	}
	sortNeighborsCanonical(all)
	return all[:min(max(l, 0), len(all))]
}

// Ties counts how many nodes in the top-l ranking share a distance value
// with at least one other ranked node (the "identical distances (ties)
// in the ranking" of Figure 8b).
func Ties(ranked []Neighbor) int {
	counts := map[int]int{}
	for _, n := range ranked {
		counts[n.Dist]++
	}
	ties := 0
	for _, c := range counts {
		if c > 1 {
			ties += c
		}
	}
	return ties
}
