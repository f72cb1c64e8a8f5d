package ned

import (
	"math/rand"

	"ned/internal/anonymize"
	"ned/internal/baseline"
	"ned/internal/datasets"
	"ned/internal/graph"
)

// DatasetName identifies one of the six Table-2 dataset analogs.
type DatasetName = datasets.Name

// The six datasets of the paper's Table 2 (synthetic analogs; see
// DESIGN.md for the substitution rationale).
const (
	DatasetCAR  = datasets.CAR
	DatasetPAR  = datasets.PAR
	DatasetAMZN = datasets.AMZN
	DatasetDBLP = datasets.DBLP
	DatasetGNU  = datasets.GNU
	DatasetPGP  = datasets.PGP
)

// AllDatasets lists the datasets in Table 2 order.
var AllDatasets = datasets.All

// DatasetOptions scales and seeds dataset generation; the zero value
// produces the default laptop-sized graphs deterministically.
type DatasetOptions = datasets.Options

// DatasetStats is a Table 2 summary row.
type DatasetStats = datasets.Stats

// GenerateDataset builds the named synthetic dataset analog.
func GenerateDataset(name DatasetName, opts DatasetOptions) (*Graph, error) {
	return datasets.Generate(name, opts)
}

// MustGenerateDataset is GenerateDataset but panics on unknown names.
func MustGenerateDataset(name DatasetName, opts DatasetOptions) *Graph {
	return datasets.MustGenerate(name, opts)
}

// SummarizeDataset produces the Table-2 row for a graph.
func SummarizeDataset(name DatasetName, g *Graph) DatasetStats {
	return datasets.Summarize(name, g)
}

// AnonymizeNaive applies a random node permutation (naive anonymization).
func AnonymizeNaive(g *Graph, seed int64) AnonymizedGraph {
	return anonymize.Naive(g, rand.New(rand.NewSource(seed)))
}

// AnonymizeSparsify permutes and removes a ratio fraction of the edges.
func AnonymizeSparsify(g *Graph, ratio float64, seed int64) AnonymizedGraph {
	return anonymize.Sparsify(g, ratio, rand.New(rand.NewSource(seed)))
}

// AnonymizePerturb permutes, removes a ratio fraction of the edges, and
// inserts an equal number of random edges.
func AnonymizePerturb(g *Graph, ratio float64, seed int64) AnonymizedGraph {
	return anonymize.Perturb(g, ratio, rand.New(rand.NewSource(seed)))
}

// RegionalFeatures computes the ReFeX-style recursive feature vector of
// one node (the Feature baseline of §13.4–13.5).
func RegionalFeatures(g *Graph, v NodeID, depth int) FeatureVector {
	return baseline.RegionalFeatures(g, v, depth)
}

// RegionalFeaturesAll is RegionalFeatures of every node of g, in node
// order, from one pass over the graph.
func RegionalFeaturesAll(g *Graph, depth int) []FeatureVector {
	return baseline.RegionalFeaturesAll(g, depth)
}

// NetSimileFeatures computes the 7-feature NetSimile node vector.
func NetSimileFeatures(g *Graph, v NodeID) FeatureVector {
	return baseline.NetSimileFeatures(g, v)
}

// FeatureL1 is the Manhattan distance between feature vectors.
func FeatureL1(a, b FeatureVector) float64 { return baseline.L1(a, b) }

// HITSScores computes the Blondel et al. HITS-based similarity matrix
// between all node pairs of two graphs and returns a scorer function
// (higher = more similar). It is the slowest baseline (§13.4).
func HITSScores(ga, gb *Graph) func(b, a NodeID) float64 {
	h := baseline.NewHITSSimilarity(ga, gb, baseline.HITSOptions{})
	return func(b, a graph.NodeID) float64 { return h.Score(b, a) }
}
