package deanon

import (
	"math/rand"
	"testing"

	"ned"
	"ned/internal/anonymize"
	"ned/internal/datasets"
	"ned/internal/graph"
)

// buildExperiment anonymizes a small PGP analog (naively at ratio 0)
// and samples queries; the pool is the whole training graph.
func buildExperiment(t *testing.T, ratio float64, queries, topL int) (Experiment, *graph.Graph, *graph.Graph) {
	t.Helper()
	train := datasets.MustGenerate(datasets.PGP, datasets.Options{Scale: 0.1, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	var anon anonymize.Result
	if ratio == 0 {
		anon = anonymize.Naive(train, rng)
	} else {
		anon = anonymize.Perturb(train, ratio, rng)
	}
	qs := make([]graph.NodeID, queries)
	for i, v := range rng.Perm(anon.Graph.NumNodes())[:queries] {
		qs[i] = graph.NodeID(v)
	}
	return Experiment{Identity: anon.Identity, Queries: qs, TopL: topL}, train, anon.Graph
}

// nedRanker ranks with a k=3 Corpus over train.
func nedRanker(t *testing.T, train, test *graph.Graph) Ranker {
	t.Helper()
	c, err := ned.NewCorpus(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NED(c, test, 3)
}

func TestPrecisionNaiveAnonymizationIsHigh(t *testing.T) {
	// With structure fully intact, NED should re-identify most nodes
	// within a generous top-l.
	e, train, test := buildExperiment(t, 0, 15, 5)
	p := Precision(e, nedRanker(t, train, test))
	if p < 0.6 {
		t.Errorf("naive-anonymization NED precision = %.2f, want >= 0.6", p)
	}
}

func TestPrecisionDegradesWithPerturbation(t *testing.T) {
	eLow, train, testLow := buildExperiment(t, 0.01, 15, 5)
	eHigh, _, testHigh := buildExperiment(t, 0.40, 15, 5)
	pLow := Precision(eLow, nedRanker(t, train, testLow))
	pHigh := Precision(eHigh, nedRanker(t, train, testHigh))
	if pHigh > pLow {
		t.Errorf("precision should not improve with perturbation: %.2f -> %.2f", pLow, pHigh)
	}
}

func TestPrecisionGrowsWithTopL(t *testing.T) {
	e1, train, test := buildExperiment(t, 0.02, 15, 1)
	e10 := e1
	e10.TopL = 10
	rank := nedRanker(t, train, test)
	p1 := Precision(e1, rank)
	p10 := Precision(e10, rank)
	if p10 < p1 {
		t.Errorf("top-10 precision %.2f below top-1 %.2f", p10, p1)
	}
}

func TestFeatureScorerRuns(t *testing.T) {
	e, train, test := buildExperiment(t, 0.01, 10, 5)
	p := Precision(e, NewFeature(train, 2).Ranker(test))
	if p < 0 || p > 1 {
		t.Errorf("precision out of range: %v", p)
	}
}

func TestPrecisionEmptyQueries(t *testing.T) {
	e := Experiment{TopL: 5}
	never := func(graph.NodeID, int) []graph.NodeID { panic("ranked with no queries") }
	if p := Precision(e, never); p != 0 {
		t.Errorf("empty experiment precision = %v", p)
	}
}
