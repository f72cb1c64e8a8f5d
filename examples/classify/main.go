// Classify: across-network node classification (transfer learning on
// graphs, the §1 motivation). Nodes of a labeled source graph play the
// role of training examples; nodes of a separate unlabeled target graph
// are classified by 1-nearest-neighbor under NED. Structural roles here
// are degree classes of a road-like versus hub-like mixture graph, so
// ground truth is checkable.
package main

import (
	"context"
	"fmt"
	"log"

	"ned"
)

// role buckets a node by local structure: the "role" a classifier would
// learn. Hubs (degree >= 6), connectors (3-5), and peripherals (<= 2).
func role(g *ned.Graph, v ned.NodeID) string {
	switch d := g.Degree(v); {
	case d >= 6:
		return "hub"
	case d >= 3:
		return "connector"
	default:
		return "peripheral"
	}
}

func main() {
	// Two independently generated graphs from the same family: knowledge
	// learned on source should transfer to target.
	source := ned.MustGenerateDataset(ned.DatasetAMZN, ned.DatasetOptions{Scale: 0.25, Seed: 3})
	target := ned.MustGenerateDataset(ned.DatasetAMZN, ned.DatasetOptions{Scale: 0.25, Seed: 4})
	fmt.Println("source:", source)
	fmt.Println("target:", target)

	const k = 2
	const trainN, testN = 400, 100

	// "Labeled" source nodes.
	var trainNodes []ned.NodeID
	for v := 0; v < trainN && v < source.NumNodes(); v++ {
		trainNodes = append(trainNodes, ned.NodeID(v))
	}

	// Index the training nodes in a Corpus: the cascade scan is exact, so
	// it returns exactly the nearest neighbor. BatchKNN classifies every
	// test node in one parallel, cancelable call.
	corpus, err := ned.NewCorpus(source, k, ned.WithNodes(trainNodes))
	if err != nil {
		log.Fatal(err)
	}

	var testNodes []ned.NodeID
	for v := 0; v < testN && v < target.NumNodes(); v++ {
		testNodes = append(testNodes, ned.NodeID(v))
	}
	testSigs := ned.Signatures(target, testNodes, k)
	nns, err := corpus.BatchKNN(context.Background(), testSigs, 1)
	if err != nil {
		log.Fatal(err)
	}

	correct, total := 0, 0
	confusion := map[string]map[string]int{}
	for i, v := range testNodes {
		if len(nns[i]) == 0 {
			continue
		}
		predicted := role(source, nns[i][0].Node)
		actual := role(target, v)
		if confusion[actual] == nil {
			confusion[actual] = map[string]int{}
		}
		confusion[actual][predicted]++
		if predicted == actual {
			correct++
		}
		total++
	}

	fmt.Printf("\n1-NN transfer classification over NED (k=%d): %d/%d correct (%.0f%%)\n",
		k, correct, total, 100*float64(correct)/float64(total))
	fmt.Println("confusion (actual -> predicted):")
	for _, actual := range []string{"hub", "connector", "peripheral"} {
		fmt.Printf("  %-10s %v\n", actual, confusion[actual])
	}
	stats := corpus.Stats()
	fmt.Printf("TED* evaluations: %d (vs %d for a full scan)\n",
		stats.DistanceCalls, total*len(trainNodes))
}
