package baseline

import (
	"math"

	"ned/internal/graph"
)

// FeatureVector is a node's structural feature vector; comparable across
// graphs because every entry is derived purely from topology.
type FeatureVector []float64

// RegionalFeatures computes ReFeX-style recursive structural features
// [Henderson et al., KDD'11] for one node:
//
//	depth 0 (local + egonet): degree, egonet internal edge count, egonet
//	boundary edge count — the NetSimile/OddBall feature core;
//	depth r: the sum and the mean over the node's neighbors of every
//	depth r-1 feature.
//
// depth hops of recursion make the vector sensitive to a (depth+1)-hop
// neighborhood, mirroring NED's parameter k. Feature values are
// log-scaled (log1p) as a stand-in for ReFeX's vertical logarithmic
// binning, which keeps heavy-tailed degree features from dominating the
// distance.
func RegionalFeatures(g *graph.Graph, v graph.NodeID, depth int) FeatureVector {
	base := baseFeatures(g)
	cur := base
	for r := 0; r < depth; r++ {
		cur = aggregate(g, cur)
	}
	f := append(FeatureVector(nil), cur[v]...)
	for i, x := range f {
		f[i] = math.Log1p(x)
	}
	return f
}

// RegionalFeaturesLocal computes the same vector as RegionalFeatures but
// touches only the (depth+2)-hop ball around v — the true per-node cost
// of the baseline, used by the Figure 9a per-pair timing. The extra two
// hops cover the egonet base features (one hop of boundary) and the
// outermost aggregation round.
func RegionalFeaturesLocal(g *graph.Graph, v graph.NodeID, depth int) FeatureVector {
	sub, root, _ := graph.KHopSubgraph(g, v, depth+2)
	return RegionalFeatures(sub, root, depth)
}

// RegionalFeaturesAll computes the feature matrix for every node at once,
// which is how the §13.4 query experiments batch the baseline.
func RegionalFeaturesAll(g *graph.Graph, depth int) []FeatureVector {
	cur := baseFeatures(g)
	for r := 0; r < depth; r++ {
		cur = aggregate(g, cur)
	}
	out := make([]FeatureVector, len(cur))
	for v, row := range cur {
		f := make(FeatureVector, len(row))
		for i, x := range row {
			f[i] = math.Log1p(x)
		}
		out[v] = f
	}
	return out
}

// NetSimileFeatures returns the 7-feature NetSimile node vector
// [Berlingerio et al.]: degree, clustering coefficient, average neighbor
// degree, average neighbor clustering, egonet edges, egonet boundary
// edges, egonet neighbor count. It looks only at the ego-net, which is
// exactly the limitation §1 attributes to NetSimile/OddBall, and so
// costs only the ego-net: the clustering coefficients of v and its
// neighbours, O(Σ deg(u)² log Δ) over u in N[v], plus the ego-net's
// edges — not a pass over the graph.
func NetSimileFeatures(g *graph.Graph, v graph.NodeID) FeatureVector {
	deg := float64(g.Degree(v))
	ns := g.Neighbors(v)
	var avgNbrDeg, avgNbrCC float64
	for _, u := range ns {
		avgNbrDeg += float64(g.Degree(u))
		avgNbrCC += clustering(g, u)
	}
	if len(ns) > 0 {
		avgNbrDeg /= float64(len(ns))
		avgNbrCC /= float64(len(ns))
	}
	inE, outE, nbrs := egonet(g, v)
	return FeatureVector{deg, clustering(g, v), avgNbrDeg, avgNbrCC, float64(inE), float64(outE), float64(nbrs)}
}

// L1 returns the Manhattan distance between two feature vectors; vectors
// of unequal length compare only their common prefix and count the rest
// as unmatched mass, so callers should use equal depths.
func L1(a, b FeatureVector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var d float64
	for i := 0; i < n; i++ {
		d += math.Abs(a[i] - b[i])
	}
	for i := n; i < len(a); i++ {
		d += math.Abs(a[i])
	}
	for i := n; i < len(b); i++ {
		d += math.Abs(b[i])
	}
	return d
}

// L2 returns the Euclidean distance between two equal-length vectors.
func L2(a, b FeatureVector) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Sqrt(d)
}

// baseFeatures computes the depth-0 feature rows for every node:
// degree, egonet internal edges, egonet boundary edges.
func baseFeatures(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	out := make([][]float64, n)
	for v := 0; v < n; v++ {
		inE, outE, _ := egonet(g, graph.NodeID(v))
		out[v] = []float64{float64(g.Degree(graph.NodeID(v))), float64(inE), float64(outE)}
	}
	return out
}

// aggregate appends neighbor-sum and neighbor-mean of each feature.
func aggregate(g *graph.Graph, feats [][]float64) [][]float64 {
	n := g.NumNodes()
	width := len(feats[0])
	out := make([][]float64, n)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(graph.NodeID(v))
		row := make([]float64, width*3)
		copy(row, feats[v])
		for _, u := range ns {
			for i, x := range feats[u] {
				row[width+i] += x
			}
		}
		if len(ns) > 0 {
			for i := 0; i < width; i++ {
				row[2*width+i] = row[width+i] / float64(len(ns))
			}
		}
		out[v] = row
	}
	return out
}

// egonet returns (internal edges, boundary edges, distinct 2-hop
// boundary nodes) of v's ego-net.
func egonet(g *graph.Graph, v graph.NodeID) (internal, boundary, nbrs int) {
	members := map[graph.NodeID]bool{v: true}
	for _, u := range g.Neighbors(v) {
		members[u] = true
	}
	outside := map[graph.NodeID]bool{}
	for m := range members {
		for _, u := range g.Neighbors(m) {
			if members[u] {
				if m < u {
					internal++
				}
			} else {
				boundary++
				outside[u] = true
			}
		}
	}
	return internal, boundary, len(outside)
}

// clustering returns v's local clustering coefficient: the linked
// pairs of its neighbours over all pairs of them (0 below two).
func clustering(g *graph.Graph, v graph.NodeID) float64 {
	ns := g.Neighbors(v)
	d := len(ns)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(ns[i], ns[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}
