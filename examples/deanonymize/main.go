// Deanonymize: the paper's §13.5 case study as a runnable program. A
// PGP-like web-of-trust graph is anonymized by edge perturbation; the
// attack re-identifies nodes by ranking every training node under NED
// and under the Feature baseline, and prints both precisions (on this
// graph, with the whole training graph as the pool, they tie at 0.87).
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
	)

	rng := rand.New(rand.NewSource(1))
	queryNodes := rng.Perm(anon.Graph.NumNodes())[:queries]

	// The NED attack ranks the whole training graph: one Corpus over it,
	// queried by one parallel BatchKNN.
	corpus, err := ned.NewCorpus(train, k)
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

	pool := train.NumNodes()
	trainFeats := ned.RegionalFeaturesAll(train, 2)
	anonFeats := ned.RegionalFeaturesAll(anon.Graph, 2)

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

		// Feature-baseline attack: every training node by L1 over
		// recursive features, ties in node order.
		type scored struct {
			node ned.NodeID
			d    float64
		}
		ranked := make([]scored, pool)
		for v := range ranked {
			ranked[v] = scored{ned.NodeID(v), ned.FeatureL1(anonFeats[q], trainFeats[v])}
		}
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].d < ranked[j].d })
		for _, r := range ranked[:topL] {
			if r.node == truth {
				featHits++
				break
			}
		}
	}

	fmt.Printf("\nde-anonymization precision (top-%d of all %d training nodes, %d queries):\n", topL, pool, queries)
	fmt.Printf("  NED:     %.2f\n", float64(nedHits)/queries)
	fmt.Printf("  Feature: %.2f\n", float64(featHits)/queries)
}
