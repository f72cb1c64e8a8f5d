// Package ned is a from-scratch Go implementation of
//
//	NED: An Inter-Graph Node Metric Based On Edit Distance
//	Haohan Zhu, Xianrui Meng, George Kollios (VLDB 2017, arXiv:1602.02358)
//
// NED measures the similarity of two nodes that may belong to different
// graphs by comparing their neighborhood topologies: each node is
// represented by its unordered k-adjacent tree (the BFS tree truncated at
// depth k) and the distance between two nodes is TED*, a modified tree
// edit distance that is polynomially computable and metric-like, unlike
// the NP-complete unordered tree edit distance.
//
// This package is the public facade over the implementation packages:
//
//   - the Corpus query engine: one thread-safe, context-aware API over
//     one cascade scan (§13.3–13.4 workloads), with
//     incremental Insert/Remove under live index maintenance, graph
//     version updates (UpdateGraph), and snapshot persistence
//     (Snapshot/LoadCorpus)
//   - TED* and its weighted variant (§4–5, §12 of the paper)
//   - NED for undirected and directed graphs (§3)
//   - exact TED/GED/TED* baselines for validation (§13.1)
//   - HITS-based and ReFeX-style feature baselines (§2, §13.4)
//   - VP-tree and BK-tree metric indexes for similarity queries (§13.4)
//   - graph anonymization and the de-anonymization harness (§13.5)
//   - deterministic synthetic analogs of the paper's six datasets
//
// # Quick start
//
// Similarity queries are served by a Corpus, the query engine built
// over one graph's nodes. Queries take a context, return typed errors
// instead of panicking, and are safe to issue concurrently:
//
//	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{})
//	g2 := ned.MustGenerateDataset(ned.DatasetGNU, ned.DatasetOptions{})
//
//	// Index g2's nodes once, in parallel.
//	corpus, err := ned.NewCorpus(g2, 3)
//	if err != nil { ... }
//
//	// Which nodes of g2 are most similar to node 7 of g1?
//	query := ned.NewSignature(g1, 7, 3)
//	top, err := corpus.KNNSignature(ctx, query, 10)
//
//	// One-off distances need no engine:
//	d := ned.Distance(g1, 7, g2, 42, 3) // NED with k = 3
//
//	// Corpora are mutable and persistent:
//	_ = corpus.Insert(17, 42)   // churn the indexed node set in place
//	_ = corpus.Remove(3)
//	_ = corpus.Snapshot(w)      // one binary format, graph included;
//	                            // ned.LoadCorpus(r) restores it, still mutable
//
// Everything below Corpus — Distance, Signatures, TopL, NearestSet,
// VPIndex, and friends — is the low-level layer: synchronous,
// allocation-light building blocks with no cancellation or concurrency
// contract. Prefer Corpus for serving queries; drop to the low-level
// layer inside tight loops that manage their own scheduling.
//
// See the examples directory for complete programs and README.md for
// the facade-vs-low-level API map.
package ned

import (
	"context"

	"ned/internal/anonymize"
	"ned/internal/baseline"
	"ned/internal/exact"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/ted"
	"ned/internal/tree"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users public names.
type (
	// Graph is a simple graph in compressed adjacency form; build one
	// with NewGraphBuilder or load one with LoadEdgeList.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into an immutable Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies a node within one graph (dense, 0-based).
	NodeID = graph.NodeID
	// Edge is a node pair.
	Edge = graph.Edge
	// Tree is an unordered rooted tree in level order — the node
	// signature type.
	Tree = tree.Tree
	// Signature is a node's precomputed k-adjacent tree.
	Signature = ned.Signature
	// Neighbor is a query result: candidate node plus NED distance.
	Neighbor = ned.Neighbor
	// TEDReport breaks a TED* value into per-level padding (leaf
	// insert/delete) and matching (move) costs — the edit-script summary
	// that makes the distance interpretable.
	TEDReport = ted.Report
	// TEDWeights configures the weighted TED* of §12.
	TEDWeights = ted.Weights
	// FeatureVector is a node's structural feature vector (baseline).
	FeatureVector = baseline.FeatureVector
	// AnonymizedGraph pairs an anonymized graph with its ground truth.
	AnonymizedGraph = anonymize.Result
)

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// FromEdges builds an undirected graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// LoadEdgeList loads a SNAP/KONECT-style edge-list file.
func LoadEdgeList(path string, directed bool) (*Graph, error) {
	g, _, err := graph.LoadEdgeListFile(path, directed)
	return g, err
}

// SaveEdgeList writes a graph as an edge-list file.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// KAdjacentTree extracts the unordered k-adjacent tree T(v, k): the BFS
// tree of v truncated to k levels of neighbors (Definition 1).
func KAdjacentTree(g *Graph, v NodeID, k int) *Tree {
	return tree.Extract(g, v, k, graph.Outgoing)
}

// TEDStar returns the TED* distance between two unordered trees
// (Algorithm 1; see the faithfulness note in internal/ted for the exact
// semantics).
func TEDStar(t1, t2 *Tree) int { return ted.Distance(t1, t2) }

// TEDStarReport returns TED* with its per-level cost breakdown.
func TEDStarReport(t1, t2 *Tree) TEDReport { return ted.DistanceReport(t1, t2) }

// WeightedTEDStar returns the weighted TED* of §12; nil weights mean
// unit costs. UpperBoundTEDWeights yields the δT(W+) that upper-bounds
// the original tree edit distance (Lemma 7).
func WeightedTEDStar(t1, t2 *Tree, w TEDWeights) float64 {
	return ted.WeightedDistance(t1, t2, w)
}

// UnitTEDWeights is the unweighted cost model (every operation is 1).
var UnitTEDWeights TEDWeights = ted.UnitWeights{}

// UpperBoundTEDWeights is the δT(W+) weighting of Definition 8.
var UpperBoundTEDWeights TEDWeights = ted.UpperBoundWeights{}

// Distance returns NED between node u of gu and node v of gv with
// neighborhood parameter k (Equation 1).
func Distance(gu *Graph, u NodeID, gv *Graph, v NodeID, k int) int {
	return ned.Distance(gu, u, gv, v, k)
}

// DistanceDirected returns the directed-graph NED of Equation 2 (sum of
// TED* over incoming and outgoing k-adjacent trees).
func DistanceDirected(gu *Graph, u NodeID, gv *Graph, v NodeID, k int) int {
	return ned.DistanceDirected(gu, u, gv, v, k)
}

// NewSignature precomputes the k-adjacent tree of v for repeated queries.
func NewSignature(g *Graph, v NodeID, k int) Signature { return ned.NewSignature(g, v, k) }

// Signatures precomputes signatures for a node set.
func Signatures(g *Graph, nodes []NodeID, k int) []Signature {
	return ned.Signatures(g, nodes, k)
}

// SignatureDistance returns NED between two precomputed signatures.
func SignatureDistance(a, b Signature) int { return ned.Between(a, b) }

// NearestSet returns every candidate at the minimum NED distance from
// the query (the nearest-neighbor result set of §13.3).
func NearestSet(query Signature, candidates []Signature) []Neighbor {
	return ned.NearestSet(query, candidates)
}

// TopL returns the l nearest candidates in ascending distance order.
func TopL(query Signature, candidates []Signature, l int) []Neighbor {
	return ned.TopL(query, candidates, l)
}

// Hausdorff returns the graph-to-graph Hausdorff distance over NED
// (Appendix A, Definition 9).
func Hausdorff(ga, gb *Graph, k int) int { return ned.Hausdorff(ga, gb, k) }

// HausdorffSampled is Hausdorff restricted to node samples.
func HausdorffSampled(ga *Graph, nodesA []NodeID, gb *Graph, nodesB []NodeID, k int) int {
	return ned.HausdorffSampled(ga, nodesA, gb, nodesB, k)
}

// ExactTED returns the exact (NP-hard) unordered tree edit distance for
// small trees; ok is false when an input exceeds the practical limit.
func ExactTED(t1, t2 *Tree) (d int, ok bool) { return exact.TED(t1, t2) }

// ExactGED returns the exact (NP-hard) unlabeled graph edit distance for
// small graphs; ok is false when an input exceeds the practical limit.
func ExactGED(g1, g2 *Graph) (d int, ok bool) { return exact.GED(g1, g2) }

// ExactTEDStar returns the exhaustive Definition-3 TED* optimum for
// trees with narrow levels; ok is false when a level is too wide.
func ExactTEDStar(t1, t2 *Tree) (d int, ok bool) { return exact.TEDStar(t1, t2) }

// VPIndex is the low-level VP-tree metric index over node signatures
// (§13.4): synchronous queries, no cancellation. It is the paper's
// index, kept as a library structure and for `nedbench -exp fig9`; the
// Corpus does not serve from it — prefer NewCorpus for serving
// workloads.
type VPIndex struct {
	ix   ned.Index
	dict *tree.Interner // the signatures' profiles; queries read it only
}

// NewVPIndex builds a VP-tree over the signatures.
func NewVPIndex(sigs []Signature) *VPIndex {
	items, dict := ned.ProfileSignatures(sigs)
	return &VPIndex{ix: ned.NewVPBackend(items), dict: dict}
}

// KNN returns the l nearest indexed signatures to the query.
func (ix *VPIndex) KNN(query Signature, l int) []Neighbor {
	res, _ := ix.ix.KNN(context.Background(), ned.QueryItem(query, ix.dict), l)
	return res
}

// Range returns all indexed signatures within NED distance r of query.
func (ix *VPIndex) Range(query Signature, r int) []Neighbor {
	res, _ := ix.ix.Range(context.Background(), ned.QueryItem(query, ix.dict), r)
	return res
}

// Len reports how many signatures are indexed.
func (ix *VPIndex) Len() int { return ix.ix.Len() }

// DistanceCalls reports metric evaluations since the last ResetStats.
func (ix *VPIndex) DistanceCalls() int64 { return ix.ix.DistanceCalls() }

// ResetStats zeroes the metric-evaluation counter.
func (ix *VPIndex) ResetStats() { ix.ix.ResetStats() }
