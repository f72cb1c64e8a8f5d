// Deanonymize: the paper's §13.5 case study as a runnable program. A
// PGP-like web-of-trust graph is anonymized by edge perturbation; the
// attack re-identifies nodes by ranking candidates under NED and under
// the Feature baseline, showing NED's higher precision.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"ned"
)

func main() {
	// The graph whose identities we know (training data).
	train := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: 0.5, Seed: 7})
	fmt.Println("training graph:", train)

	// The adversary publishes an anonymized copy: node IDs permuted and
	// 1% of edges rewired.
	anon := ned.AnonymizePerturb(train, 0.01, 99)
	fmt.Println("anonymized graph:", anon.Graph)

	const (
		k       = 3  // neighborhood depth
		topL    = 5  // report success if the true node ranks in the top 5
		queries = 30 // nodes to attack
		pool    = 300
	)

	rng := rand.New(rand.NewSource(1))
	queryNodes := rng.Perm(anon.Graph.NumNodes())[:queries]

	// Candidate pool: each query's true identity plus random decoys.
	candSet := map[ned.NodeID]bool{}
	for _, q := range queryNodes {
		candSet[anon.Identity[q]] = true
	}
	for len(candSet) < pool {
		candSet[ned.NodeID(rng.Intn(train.NumNodes()))] = true
	}
	var cands []ned.NodeID
	for c := range candSet {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	// The NED attack queries a Corpus over the training graph restricted
	// to the candidate pool; the whole attack is one parallel BatchKNN.
	corpus, err := ned.NewCorpus(train, k, ned.WithNodes(cands))
	if err != nil {
		log.Fatal(err)
	}
	querySigs := make([]ned.Signature, len(queryNodes))
	for i, q := range queryNodes {
		querySigs[i] = ned.NewSignature(anon.Graph, ned.NodeID(q), k)
	}
	rankings, err := corpus.BatchKNN(context.Background(), querySigs, topL)
	if err != nil {
		log.Fatal(err)
	}

	candFeats := make([]ned.FeatureVector, len(cands))
	for i, c := range cands {
		candFeats[i] = ned.RegionalFeatures(train, c, 2)
	}

	nedHits, featHits := 0, 0
	for qi, q := range queryNodes {
		truth := anon.Identity[q]

		// NED attack.
		for _, n := range rankings[qi] {
			if n.Node == truth {
				nedHits++
				break
			}
		}

		// Feature-baseline attack: rank by L1 over recursive features.
		fq := ned.RegionalFeatures(anon.Graph, ned.NodeID(q), 2)
		type scored struct {
			node ned.NodeID
			d    float64
		}
		ranked := make([]scored, len(cands))
		for i, c := range cands {
			ranked[i] = scored{c, ned.FeatureL1(fq, candFeats[i])}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].d < ranked[j].d })
		for _, r := range ranked[:topL] {
			if r.node == truth {
				featHits++
				break
			}
		}
	}

	fmt.Printf("\nde-anonymization precision (top-%d of %d candidates, %d queries):\n", topL, pool, queries)
	fmt.Printf("  NED:     %.2f\n", float64(nedHits)/queries)
	fmt.Printf("  Feature: %.2f\n", float64(featHits)/queries)
}
