package ned

import (
	"context"

	"ned/internal/baseline"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/ted"
	"ned/internal/tree"
)

// This file exposes the optional extensions built on top of the paper:
// query pruning via lower bounds, the BK-tree index alternative, the
// graphlet feature baseline, and graph statistics. Like the rest of the
// free functions, these are the low-level layer beneath the Corpus
// query engine (see corpus.go).

// TEDStarLowerBound returns the O(height) padding lower bound on the
// TED* distance: the summed level-size differences. Every edit script
// pays at least this much in leaf insertions/deletions.
func TEDStarLowerBound(t1, t2 *Tree) int { return ted.LowerBound(t1, t2) }

// DistanceLowerBound is the padding lower bound on NED between two
// signatures — valid for pruning because it never exceeds
// SignatureDistance(a, b).
func DistanceLowerBound(a, b Signature) int { return ned.LowerBound(a, b) }

// PrefixDistance evaluates NED on depth-truncated signatures, the §10
// monotonicity heuristic: cheap and usually close to the full distance.
func PrefixDistance(a, b Signature, kPrefix int) int {
	return ned.PrefixDistance(a, b, kPrefix)
}

// PruneStats reports the work profile of a pruned query.
type PruneStats = ned.PruneStats

// PrunedTopL answers TopL while skipping candidates that the cascade's
// lower bounds prove cannot rank, returning the same answer as TopL
// plus the pruning statistics.
func PrunedTopL(query Signature, candidates []Signature, l int) ([]Neighbor, PruneStats) {
	return ned.PrunedTopL(query, candidates, l)
}

// BKIndex is the low-level Burkhard–Keller tree index over node
// signatures: an alternative metric index specialized to the integer
// distances NED produces. The Corpus does not serve from it; prefer
// NewCorpus for serving workloads.
type BKIndex struct {
	ix   ned.Index
	dict *tree.Interner // the signatures' profiles; queries read it only
}

// NewBKIndex builds a BK-tree over the signatures.
func NewBKIndex(sigs []Signature) *BKIndex {
	items, dict := ned.ProfileSignatures(sigs)
	return &BKIndex{ix: ned.NewBKBackend(items), dict: dict}
}

// KNN returns the l nearest indexed signatures to the query.
func (ix *BKIndex) KNN(query Signature, l int) []Neighbor {
	res, _ := ix.ix.KNN(context.Background(), ned.QueryItem(query, ix.dict), l)
	return res
}

// Range returns all indexed signatures within NED distance r.
func (ix *BKIndex) Range(query Signature, r int) []Neighbor {
	res, _ := ix.ix.Range(context.Background(), ned.QueryItem(query, ix.dict), r)
	return res
}

// Len reports how many signatures are indexed.
func (ix *BKIndex) Len() int { return ix.ix.Len() }

// DistanceCalls reports metric evaluations since the last ResetStats.
func (ix *BKIndex) DistanceCalls() int64 { return ix.ix.DistanceCalls() }

// ResetStats zeroes the metric-evaluation counter.
func (ix *BKIndex) ResetStats() { ix.ix.ResetStats() }

// GraphletFeatures computes the graphlet-degree feature vector of a node
// (the §2 graphlet baseline family, up to 4-node patterns).
func GraphletFeatures(g *Graph, v NodeID) FeatureVector {
	return baseline.GraphletFeatures(g, v)
}

// SimRankScores computes the intra-graph SimRank similarity matrix of g
// (the §2 link-based baseline) and returns a scorer. SimRank cannot
// compare inter-graph nodes: see SimRankInterGraph.
func SimRankScores(g *Graph) func(a, b NodeID) float64 {
	sr := baseline.NewSimRank(g, baseline.SimRankOptions{})
	return sr.Score
}

// SimRankInterGraph runs SimRank on the disjoint union of two graphs and
// returns the score of the cross-graph pair — identically zero, which is
// the executable form of the paper's §2 argument that link-based
// similarities cannot compare inter-graph nodes.
func SimRankInterGraph(ga *Graph, u NodeID, gb *Graph, v NodeID) float64 {
	return baseline.SimRankInterGraph(ga, u, gb, v, baseline.SimRankOptions{})
}

// BatchOptions controls the worker count of parallel batch operations.
type BatchOptions = ned.BatchOptions

// SignaturesParallel extracts signatures concurrently; output order
// matches the input order.
func SignaturesParallel(g *Graph, nodes []NodeID, k int, opts BatchOptions) []Signature {
	return ned.SignaturesParallel(g, nodes, k, opts)
}

// DistanceMatrix computes the full pairwise NED matrix between two
// signature sets in parallel.
func DistanceMatrix(as, bs []Signature, opts BatchOptions) [][]int {
	return ned.DistanceMatrix(as, bs, opts)
}

// TopLParallel is TopL with candidate distances evaluated concurrently.
func TopLParallel(query Signature, candidates []Signature, l int, opts BatchOptions) []Neighbor {
	return ned.TopLParallel(query, candidates, l, opts)
}

// SaveSignatures persists precomputed signatures to a text file.
func SaveSignatures(path string, sigs []Signature) error {
	return ned.SaveSignaturesFile(path, sigs)
}

// LoadSignatures reads signatures written by SaveSignatures.
func LoadSignatures(path string) ([]Signature, error) {
	return ned.LoadSignaturesFile(path)
}

// RoleSimScores computes the intra-graph RoleSim role similarity (§8's
// axiomatic measure) with exact Hungarian neighbor matching and returns
// a scorer function. Small graphs only.
func RoleSimScores(g *Graph) func(a, b NodeID) float64 {
	rs := baseline.NewRoleSim(g, baseline.RoleSimOptions{})
	return rs.Score
}

// GraphStats aggregates structural measurements of a graph.
type GraphStats = graph.Stats

// ComputeGraphStats measures a graph (clustering, components,
// approximate diameter, assortativity, ...).
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// DegreeHistogram returns counts[d] = number of nodes of degree d.
func DegreeHistogram(g *Graph) []int { return graph.DegreeHistogram(g) }
