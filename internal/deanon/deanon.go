// Package deanon implements the graph de-anonymization attack harness of
// §13.5: given a non-anonymized training graph and an anonymized testing
// graph, re-identify each test node by ranking training nodes under an
// inter-graph node similarity and checking whether the true identity
// appears among the top-l matches.
package deanon

import (
	"cmp"
	"context"
	"slices"

	"ned"
	"ned/internal/baseline"
	"ned/internal/graph"
)

// Ranker returns the l training nodes most similar to anonymized test
// node q, best first, ties broken by node ID.
type Ranker func(q graph.NodeID, l int) []graph.NodeID

// NED ranks with c, an undirected Corpus over the training graph at
// depth k: the top l are c's KNN of q's k-adjacent tree in the
// anonymized graph test. Any other k, or an l below 1, is a caller bug
// and panics.
func NED(c *ned.Corpus, test *graph.Graph, k int) Ranker {
	return func(q graph.NodeID, l int) []graph.NodeID {
		top, err := c.KNNSignature(context.Background(), ned.NewSignature(test, q, k), l)
		if err != nil {
			panic(err)
		}
		nodes := make([]graph.NodeID, len(top))
		for i, n := range top {
			nodes[i] = n.Node
		}
		return nodes
	}
}

// Feature is the ReFeX-style feature baseline at a recursion depth
// (paired with NED's k as in §13.5), holding the training graph's
// vectors so every anonymized copy ranks against one extraction.
type Feature struct {
	depth int
	train []baseline.FeatureVector
}

// NewFeature extracts the feature vectors of every training node.
func NewFeature(train *graph.Graph, depth int) *Feature {
	return &Feature{depth: depth, train: baseline.RegionalFeaturesAll(train, depth)}
}

// Ranker ranks every training node by L1 distance between its vector
// and the anonymized node's vector in test.
func (f *Feature) Ranker(test *graph.Graph) Ranker {
	feats := baseline.RegionalFeaturesAll(test, f.depth)
	type scored struct {
		c graph.NodeID
		d float64
	}
	return func(q graph.NodeID, l int) []graph.NodeID {
		ranked := make([]scored, len(f.train))
		for c, fc := range f.train {
			ranked[c] = scored{graph.NodeID(c), baseline.L1(feats[q], fc)}
		}
		slices.SortFunc(ranked, func(a, b scored) int {
			return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.c, b.c))
		})
		nodes := make([]graph.NodeID, min(l, len(ranked)))
		for i := range nodes {
			nodes[i] = ranked[i].c
		}
		return nodes
	}
}

// Experiment describes one de-anonymization run.
type Experiment struct {
	Identity []graph.NodeID // ground truth: Identity[testNode] = trainNode
	Queries  []graph.NodeID // test nodes to re-identify
	TopL     int            // success = truth within the best TopL matches
}

// Precision runs the attack and returns the fraction of queries whose
// true identity is among the top TopL nodes rank returns.
func Precision(e Experiment, rank Ranker) float64 {
	if len(e.Queries) == 0 || e.TopL < 1 {
		return 0
	}
	hits := 0
	for _, q := range e.Queries {
		if slices.Contains(rank(q, e.TopL), e.Identity[q]) {
			hits++
		}
	}
	return float64(hits) / float64(len(e.Queries))
}
