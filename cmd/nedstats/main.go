// Command nedstats prints structural statistics of a graph — either one
// of the built-in dataset analogs or an edge-list file — so the synthetic
// substitutions of DESIGN.md §2 can be checked against the real graphs'
// published numbers.
//
// Usage:
//
//	nedstats -dataset PGP [-scale 1.0] [-seed 42]
//	nedstats -file path/to/graph.edges
//	nedstats -dataset PGP -probe 20 [-k 3]   # report filter-cascade effectiveness too
//	nedstats -upgrade old.nedcorpus new.nedseg   # convert a corpus file to NEDSEG04
//	nedstats -upgrade /var/lib/nedserve/prod     # convert a durable directory in place
//
// With -probe N, nedstats builds a corpus over the graph, runs N
// self-KNN queries through it, and reports the serving work profile —
// TED* evaluations, budget early exits, and the per-tier cascade prune
// counters (size / padding / tier 2 (degree sequence)) — so the filter cascade's
// effectiveness on a dataset can be checked before serving it.
//
// With -json, nedstats builds a corpus (honoring -k and -probe) and emits the same machine-readable stats document the
// nedserve stats endpoint returns, through the same encoder, so
// offline tooling and the serving tier can never drift apart.
//
// With -upgrade, nedstats converts a corpus an earlier build wrote (a
// NEDSEG01, NEDSEG02 or NEDSEG03 segment or a text corpus, which the
// engine rejects with ned.ErrLegacyFormat) to NEDSEG04: SRC DST writes SRC's
// corpus to DST; DIR rewrites a durable directory's legacy checkpoints
// in place, logs untouched. Both write atomically, print each file's
// bytes before and after, and a rerun changes nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ned"
	"ned/internal/datasets"
	"ned/internal/fsx"
	"ned/internal/graph"
	"ned/internal/legacy"
	"ned/internal/serve"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "built-in dataset analog (CAR, PAR, AMZN, DBLP, GNU, PGP)")
		file    = flag.String("file", "", "edge-list file to analyze")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		hist    = flag.Bool("hist", false, "print the degree histogram")
		k       = flag.Int("k", 3, "neighborhood depth for the probe and -json corpora")
		probe   = flag.Int("probe", 0, "run this many self-KNN queries and report the filter-cascade work profile (0 = off)")
		asJSON  = flag.Bool("json", false, "emit the corpus stats as the nedserve machine-readable stats document")
		upgrade = flag.Bool("upgrade", false, "convert an earlier build's corpus (NEDSEG01, NEDSEG02, NEDSEG03, text) to NEDSEG04: -upgrade SRC DST (a file) or -upgrade DIR (a durable directory)")
	)
	flag.Parse()
	if *upgrade {
		upgradeCorpus(flag.Args())
		return
	}

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
		emitJSON(g, label, *k, *probe)
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

	if *probe > 0 {
		probeCascade(g, *k, *probe)
	}
}

// emitJSON builds a corpus over g (optionally probing it first so the
// work counters are populated) and writes the stats document to stdout
// via serve.EncodeStats — the exact schema and encoder the nedserve
// stats endpoint uses.
func emitJSON(g *graph.Graph, label string, k, probe int) {
	corpus, err := ned.NewCorpus(g, k)
	if err != nil {
		fatal(err)
	}
	if probe > 0 {
		runProbes(corpus, g, probe)
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

// upgradeCorpus converts legacy corpora to NEDSEG04: args are SRC DST
// (a file) or DIR (a durable directory).
func upgradeCorpus(args []string) {
	switch len(args) {
	case 1:
		done, err := legacy.UpgradeDir(args[0])
		for _, c := range done {
			fmt.Printf("%s: %s, %s\n", c.Path, c.Format, sizes(c.Before, c.After))
		}
		if err != nil {
			fatal(err)
		}
		if len(done) == 0 {
			fmt.Printf("%s: every checkpoint is NEDSEG04 already\n", args[0])
		}
	case 2:
		src, err := os.ReadFile(args[0])
		if err != nil {
			fatal(err)
		}
		var format string
		if err := fsx.WriteFileAtomic(args[1], func(w io.Writer) (err error) {
			format, err = legacy.Upgrade(w, src)
			return err
		}); err != nil {
			fatal(fmt.Errorf("%s: %w", args[0], err))
		}
		fi, err := os.Stat(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (%s) -> %s (NEDSEG04), %s\n", args[0], format, args[1], sizes(int64(len(src)), fi.Size()))
	default:
		fmt.Fprintln(os.Stderr, "nedstats: -upgrade takes SRC DST or DIR")
		os.Exit(2)
	}
}

// sizes reports a conversion's bytes before and after.
func sizes(before, after int64) string {
	return fmt.Sprintf("%d -> %d bytes (%.1f%%)", before, after, 100*float64(after)/float64(max(before, 1)))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nedstats: %v\n", err)
	os.Exit(1)
}
