// Command nedstats prints structural statistics of a graph — either one
// of the built-in dataset analogs or an edge-list file — so the synthetic
// substitutions of DESIGN.md §2 can be checked against the real graphs'
// published numbers.
//
// Usage:
//
//	nedstats -dataset PGP [-scale 1.0] [-seed 42]
//	nedstats -file path/to/graph.edges
//	nedstats -dataset PGP -shards 8 [-k 3]   # report corpus shard balance too
//	nedstats -dataset PGP -probe 20 [-k 3]   # report filter-cascade effectiveness too
//
// With -shards (> 0, or -shards -1 for the GOMAXPROCS-derived default),
// nedstats additionally partitions the graph's nodes the way a sharded
// ned.Corpus would and reports the per-shard node counts, so the hash
// balance can be checked for a dataset before serving it.
//
// With -probe N, nedstats builds a corpus over the graph, runs N
// self-KNN queries through it, and reports the serving work profile —
// TED* evaluations, budget early exits, and the per-tier cascade prune
// counters (size / padding / tier 2 (degree sequence)) — so the filter cascade's
// effectiveness on a dataset can be checked before serving it.
//
// With -json, nedstats builds a corpus (honoring -k, -shards, and
// -probe) and emits the same machine-readable stats document the
// nedserve stats endpoint returns, through the same encoder, so
// offline tooling and the serving tier can never drift apart.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ned"
	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/serve"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "built-in dataset analog (CAR, PAR, AMZN, DBLP, GNU, PGP)")
		file    = flag.String("file", "", "edge-list file to analyze")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		hist    = flag.Bool("hist", false, "print the degree histogram")
		shards  = flag.Int("shards", 0, "report corpus shard balance for this shard count (0 = off, -1 = GOMAXPROCS-derived default)")
		k       = flag.Int("k", 3, "neighborhood depth for the shard-balance and probe corpora")
		probe   = flag.Int("probe", 0, "run this many self-KNN queries and report the filter-cascade work profile (0 = off)")
		asJSON  = flag.Bool("json", false, "emit the corpus stats as the nedserve machine-readable stats document")
	)
	flag.Parse()

	var g *graph.Graph
	var label string
	switch {
	case *dataset != "":
		name := datasets.Name(strings.ToUpper(*dataset))
		var err error
		g, err = datasets.Generate(name, datasets.Options{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		label = string(name)
	case *file != "":
		var err error
		g, _, err = graph.LoadEdgeListFile(*file, false)
		if err != nil {
			fatal(err)
		}
		label = *file
	default:
		fmt.Fprintln(os.Stderr, "nedstats: provide -dataset or -file")
		flag.Usage()
		os.Exit(2)
	}

	if *asJSON {
		emitJSON(g, label, *k, *shards, *probe)
		return
	}

	s := graph.ComputeStats(g)
	fmt.Printf("graph: %s\n", label)
	fmt.Printf("  nodes                 %d\n", s.Nodes)
	fmt.Printf("  edges                 %d\n", s.Edges)
	fmt.Printf("  avg degree            %.2f\n", s.AvgDegree)
	fmt.Printf("  max degree            %d\n", s.MaxDegree)
	fmt.Printf("  components            %d (largest %d)\n", s.Components, s.LargestComponent)
	fmt.Printf("  global clustering     %.4f\n", s.GlobalClustering)
	fmt.Printf("  avg local clustering  %.4f\n", s.AvgLocalCluster)
	fmt.Printf("  diameter (approx >=)  %d\n", s.ApproxDiameter)
	fmt.Printf("  degree assortativity  %.4f\n", s.DegreeAssortative)

	if *hist {
		fmt.Println("  degree histogram:")
		for d, c := range graph.DegreeHistogram(g) {
			if c > 0 {
				fmt.Printf("    %4d  %d\n", d, c)
			}
		}
	}

	if *shards != 0 {
		corpus, err := ned.NewCorpus(g, *k, ned.WithShards(ned.ShardsFlag(*shards)))
		if err != nil {
			fatal(err)
		}
		cs := corpus.Stats()
		fmt.Printf("corpus sharding (k=%d):\n", cs.K)
		fmt.Printf("  shards                %d\n", cs.Shards)
		lo, hi := cs.ShardNodes[0], cs.ShardNodes[0]
		for _, c := range cs.ShardNodes {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		fmt.Printf("  nodes/shard           min %d, max %d (ideal %.1f)\n",
			lo, hi, float64(cs.Nodes)/float64(cs.Shards))
		fmt.Printf("  per-shard counts      %v\n", cs.ShardNodes)
	}

	if *probe > 0 {
		probeCascade(g, *k, *probe)
	}
}

// emitJSON builds a corpus over g (optionally probing it first so the
// work counters are populated) and writes the stats document to stdout
// via serve.EncodeStats — the exact schema and encoder the nedserve
// stats endpoint uses.
func emitJSON(g *graph.Graph, label string, k, shards, probe int) {
	var opts []ned.CorpusOption
	if shards != 0 {
		opts = append(opts, ned.WithShards(ned.ShardsFlag(shards)))
	}
	corpus, err := ned.NewCorpus(g, k, opts...)
	if err != nil {
		fatal(err)
	}
	if probe > 0 {
		runProbes(corpus, g, probe)
	} else {
		corpus.Rebuild() // materialize so node/shard counts are real
	}
	if err := serve.EncodeStats(os.Stdout, serve.StatsDoc{Corpus: label, Stats: corpus.Stats()}); err != nil {
		fatal(err)
	}
}

// runProbes serves n spread-out self-KNN(5) queries so the cascade and
// distance counters in the emitted stats reflect real serving work.
func runProbes(corpus *ned.Corpus, g *graph.Graph, n int) {
	ctx := context.Background()
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	step := g.NumNodes() / n
	if step < 1 {
		step = 1
	}
	for q := 0; q < n; q++ {
		if _, err := corpus.KNN(ctx, ned.NodeID(q*step), 5); err != nil {
			fatal(err)
		}
	}
}

// probeCascade serves n self-KNN queries (node 0, step spread across
// the graph) from a corpus over g and prints the cascade work profile:
// how many candidate evaluations the size / padding / tier 2 (degree
// sequence) bounds dismissed before any TED* matching work, versus
// full evaluations and mid-TED* early exits.
func probeCascade(g *graph.Graph, k, n int) {
	corpus, err := ned.NewCorpus(g, k)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	step := g.NumNodes() / n
	if step < 1 {
		step = 1
	}
	// Materialize outside the measured window, then reset the counters
	// so the profile covers only the probe queries.
	if _, err := corpus.KNN(ctx, 0, 1); err != nil {
		fatal(err)
	}
	corpus.ResetStats()
	for q := 0; q < n; q++ {
		if _, err := corpus.KNN(ctx, ned.NodeID(q*step), 5); err != nil {
			fatal(err)
		}
	}
	s := corpus.Stats()
	per := func(v int64) string { return fmt.Sprintf("%d (%.1f/query)", v, float64(v)/float64(n)) }
	fmt.Printf("filter cascade (k=%d, %d KNN(5) probes):\n", s.K, n)
	fmt.Printf("  TED* evaluations           %s\n", per(s.DistanceCalls))
	fmt.Printf("  early exits                %s\n", per(s.EarlyExits))
	fmt.Printf("  cascade prunes             %s\n", per(s.LowerBoundPrunes))
	fmt.Printf("    size tier                %s\n", per(s.SizePrunes))
	fmt.Printf("    padding tier             %s\n", per(s.PaddingPrunes))
	fmt.Printf("    tier 2 (degree sequence) %s\n", per(s.LabelPrunes))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nedstats: %v\n", err)
	os.Exit(1)
}
