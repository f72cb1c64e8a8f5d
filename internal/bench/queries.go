package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ned/internal/baseline"
	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/ned"
)

// datasetK mirrors §13.4: "5-adjacent trees for the nodes in (CAR) and
// (PAR) graphs and 3-adjacent trees for the nodes in (PGP), (GNU),
// (AMZN) and (DBLP)".
func datasetK(name datasets.Name) int {
	if name == datasets.CAR || name == datasets.PAR {
		return 5
	}
	return 3
}

// Figure9a reproduces Figure 9a: per-pair computation time of NED,
// HITS-based similarity, and Feature-based similarity on every dataset.
// Expected shape (paper §13.4): HITS slowest by orders of magnitude
// (one pair costs a full matrix iteration), Feature fastest, NED in
// between, paying a modest premium for metricity and topology-awareness.
func Figure9a(o Options) Table {
	o.defaults()
	t := Table{
		Title:  "Figure 9a: Node Similarity Computation Time (µs/pair)",
		Note:   "k=5 for CAR/PAR, k=3 otherwise; HITS = full matrix on 600-node caps",
		Header: []string{"Dataset", "NED (µs)", "HITS (µs)", "Feature (µs)"},
	}
	for _, name := range datasets.All {
		g1 := o.dataset(name)
		// Pair each dataset against an independently seeded copy of
		// itself, making the comparison inter-graph as in §13.
		g2 := datasets.MustGenerate(name, datasets.Options{Scale: o.Scale, Seed: o.Seed + 999})
		k := datasetK(name)
		rng := rand.New(rand.NewSource(o.Seed + 17))
		us1 := sampleNodes(g1, o.Pairs, rng)
		vs1 := sampleNodes(g2, o.Pairs, rng)

		var wNED stopwatch
		for i := range us1 {
			u, v := us1[i], vs1[i]
			wNED.time(func() { ned.Distance(g1, u, g2, v, k) })
		}

		// Feature: ReFeX is a batch framework — features are extracted
		// once for the whole graph — so the honest per-pair cost is the
		// amortized per-node extraction plus the vector distance. This is
		// what makes Feature the fastest method in the paper's Figure 9a.
		var wFeatAll stopwatch
		var feats1, feats2 []baseline.FeatureVector
		wFeatAll.time(func() { feats1 = baseline.RegionalFeaturesAll(g1, k-1) })
		wFeatAll.time(func() { feats2 = baseline.RegionalFeaturesAll(g2, k-1) })
		perNode := float64(wFeatAll.total.Nanoseconds()) / float64(g1.NumNodes()+g2.NumNodes())
		var wL1 stopwatch
		for i := range us1 {
			u, v := us1[i], vs1[i]
			wL1.time(func() { baseline.L1(feats1[u], feats2[v]) })
		}
		featPerPair := time.Duration(2*perNode) + wL1.mean()

		// HITS: similarity of even one pair requires iterating the full
		// nB×nA matrix to convergence, so the per-pair cost IS the matrix
		// cost (the paper's slowest method). Node counts are capped to
		// keep the experiment finite; the uncapped cost only grows.
		h1 := capGraph(g1, 600)
		h2 := capGraph(g2, 600)
		var wHITS stopwatch
		wHITS.time(func() {
			baseline.NewHITSSimilarity(h1, h2, baseline.HITSOptions{MaxIters: 20})
		})

		t.AddRow(string(name), us(wNED.mean()), us(wHITS.mean()), us(featPerPair))
	}
	return t
}

// capGraph returns the induced subgraph on the first n nodes of the
// largest component (deterministic), used to keep HITS tractable.
func capGraph(g *graph.Graph, n int) *graph.Graph {
	if g.NumNodes() <= n {
		return g
	}
	comp := graph.LargestComponent(g)
	if len(comp) > n {
		comp = comp[:n]
	}
	keep := make(map[graph.NodeID]graph.NodeID, len(comp))
	for i, v := range comp {
		keep[v] = graph.NodeID(i)
	}
	b := graph.NewBuilder(len(comp), g.Directed())
	for _, e := range g.Edges() {
		u, okU := keep[e.U]
		v, okV := keep[e.V]
		if okU && okV {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// scanQueries is how many of Fig. 9b's sampled queries its NED scan
// column times. The column is the deliberate exhaustive baseline, TED*
// against every candidate; timing all 100 default queries took 24.7 of
// fig9's 26 minutes (EXPERIMENTS.md, "Where Fig. 9 spends its time").
// The sample is uniform, so its prefix is a uniform sample too.
const scanQueries = 10

// Figure9b reproduces Figure 9b: nearest-neighbor query time of NED
// with a VP-tree index versus the Feature baseline's full scan.
func Figure9b(o Options) Table {
	o.defaults()
	t := Table{
		Title: "Figure 9b: NN Query Time — NED + VP-tree vs Feature full scan (ms/query)",
		Note: fmt.Sprintf("%d candidates, %d queries per dataset; NED scan timed on the first %d of them",
			o.Candidates, o.Queries, min(scanQueries, o.Queries)),
		Header: []string{"Dataset", "NED+VPtree (ms)", "NED scan (ms)", "Feature scan (ms)", "VP dist calls/query"},
	}
	for _, name := range datasets.All {
		g1 := o.dataset(name)
		g2 := datasets.MustGenerate(name, datasets.Options{Scale: o.Scale, Seed: o.Seed + 999})
		k := datasetK(name)
		rng := rand.New(rand.NewSource(o.Seed + 19))
		queries := sampleNodes(g1, o.Queries, rng)
		cands := sampleNodes(g2, o.Candidates, rng)

		qs := ned.Signatures(g1, queries, k)
		cs := ned.Signatures(g2, cands, k)
		items, dict := ned.ProfileSignatures(cs)
		index := ned.NewVPBackend(items)

		ctx := context.Background()
		var wVP, wScan, wFeatScan stopwatch
		index.ResetStats()
		for _, q := range qs {
			wVP.time(func() { index.KNN(ctx, ned.QueryItem(q, dict), 1) })
		}
		calls := index.DistanceCalls() / int64(max(1, len(qs)))
		for _, q := range qs[:min(scanQueries, len(qs))] {
			wScan.time(func() { ned.TopL(q, cs, 1) })
		}

		allC := baseline.RegionalFeaturesAll(g2, k-1)
		featC := make([]baseline.FeatureVector, len(cands))
		for i, c := range cands {
			featC[i] = allC[c]
		}
		allQ := baseline.RegionalFeaturesAll(g1, k-1)
		featQ := make([]baseline.FeatureVector, len(queries))
		for i, q := range queries {
			featQ[i] = allQ[q]
		}
		for _, fq := range featQ {
			wFeatScan.time(func() {
				best := -1.0
				for _, fc := range featC {
					d := baseline.L1(fq, fc)
					if best < 0 || d < best {
						best = d
					}
				}
			})
		}
		t.AddRow(string(name), ms(wVP.mean()), ms(wScan.mean()), ms(wFeatScan.mean()), fmt.Sprint(calls))
	}
	return t
}
