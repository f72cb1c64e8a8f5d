// Command nedquery answers inter-graph nearest-neighbor queries: given a
// query node in one edge-list graph, it ranks the most NED-similar nodes
// of another graph through the Corpus query engine.
//
// Usage:
//
//	nedquery -from a.edges -to b.edges -node 17 [-k 3] [-l 10]
//	         [-timeout 30s] [-workers 0]
//	         [-watch]
//
// With -watch, nedquery keeps the corpus live after the initial answer
// and reads mutation commands from stdin, re-running the query after
// each one — a REPL over the dynamic index:
//
//	add 3 17 42    index nodes of the corpus graph
//	rm 3 17        remove nodes from the index
//	rebuild        force a full index rebuild
//	stats          print serving counters and staleness
//	query          re-run the query without mutating
//	quit           exit
//
// Exit status: 0 on success, 1 on a query error (bad node, timeout,
// ...), 2 on flag misuse.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ned"
)

func main() {
	var (
		fromPath = flag.String("from", "", "edge-list file containing the query node")
		toPath   = flag.String("to", "", "edge-list file to search")
		node     = flag.Int("node", 0, "query node ID (dense ID in the -from graph)")
		k        = flag.Int("k", 3, "neighborhood depth (k-adjacent tree levels)")
		l        = flag.Int("l", 10, "number of neighbors to report")
		timeout  = flag.Duration("timeout", 0, "abort each query after this long (0 = no limit)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = all CPUs)")
		watch    = flag.Bool("watch", false, "keep the corpus live and re-query after mutation commands read from stdin")
	)
	flag.Parse()
	if *fromPath == "" || *toPath == "" {
		fmt.Fprintln(os.Stderr, "nedquery: -from and -to are required")
		flag.Usage()
		os.Exit(2)
	}

	gFrom, err := ned.LoadEdgeList(*fromPath, false)
	if err != nil {
		fatal(err)
	}
	gTo, err := ned.LoadEdgeList(*toPath, false)
	if err != nil {
		fatal(err)
	}
	if *node < 0 || *node >= gFrom.NumNodes() {
		fatal(fmt.Errorf("%w: node %d not in [0, %d) of %s",
			ned.ErrNodeOutOfRange, *node, gFrom.NumNodes(), *fromPath))
	}

	corpus, err := ned.NewCorpus(gTo, *k, ned.WithWorkers(*workers))
	if err != nil {
		fatal(err)
	}

	query := ned.NewSignature(gFrom, ned.NodeID(*node), *k)
	// Corpus counters are cumulative; the per-query line reports the
	// delta since the previous query so re-queries in watch mode show
	// each query's own cost, not a running total.
	var prev ned.CorpusStats
	runQuery := func() error {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		results, err := corpus.KNNSignature(ctx, query, *l)
		if err != nil {
			return err
		}
		stats := corpus.Stats()
		fmt.Printf("top-%d NED neighbors of %s:%d in %s (k=%d, %d indexed):\n",
			*l, *fromPath, *node, *toPath, *k, stats.Nodes)
		for rank, r := range results {
			fmt.Printf("  %2d. node %-8d distance %d\n", rank+1, r.Node, r.Dist)
		}
		fmt.Printf("(%d TED* evaluations; %d early exits, %d cascade prunes: %d size + %d padding + %d tier 2 (degree sequence))\n",
			stats.DistanceCalls-prev.DistanceCalls,
			stats.EarlyExits-prev.EarlyExits,
			stats.LowerBoundPrunes-prev.LowerBoundPrunes,
			stats.SizePrunes-prev.SizePrunes,
			stats.PaddingPrunes-prev.PaddingPrunes,
			stats.LabelPrunes-prev.LabelPrunes)
		prev = stats
		return nil
	}
	if err := runQuery(); err != nil {
		if !*watch {
			fatal(err)
		}
		// In watch mode a failed initial query (say, -timeout expiring
		// during the cold index build) still drops into the REPL, where
		// the user can mutate or just retry.
		fmt.Fprintf(os.Stderr, "nedquery: %v\n", err)
	}

	if *watch {
		watchLoop(corpus, runQuery)
	}
}

// watchLoop drives the dynamic corpus from stdin: mutations re-run the
// query so the effect on the ranking is immediately visible. Errors —
// bad input, mutation failures, query timeouts — are printed and the
// session keeps its mutated corpus state.
func watchLoop(corpus *ned.Corpus, runQuery func() error) {
	fmt.Println("watch mode: add <id...> | rm <id...> | stats | query | quit")
	requery := func() {
		if err := runQuery(); err != nil {
			fmt.Fprintf(os.Stderr, "nedquery: %v\n", err)
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "add", "rm":
			nodes, err := parseNodes(args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nedquery: %v\n", err)
				continue
			}
			if cmd == "add" {
				err = corpus.Insert(nodes...)
			} else {
				err = corpus.Remove(nodes...)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "nedquery: %v\n", err)
				continue
			}
			requery()
		case "stats":
			s := corpus.Stats()
			fmt.Printf("nodes %d, queries %d, TED* evals %d (early exits %d, cascade prunes %d = %d size + %d padding + %d tier 2 (degree sequence))\n",
				s.Nodes, s.Queries, s.DistanceCalls, s.EarlyExits,
				s.LowerBoundPrunes, s.SizePrunes, s.PaddingPrunes, s.LabelPrunes)
		case "query":
			requery()
		case "quit", "exit", "q":
			return
		default:
			fmt.Fprintf(os.Stderr, "nedquery: unknown command %q (add, rm, stats, query, quit)\n", cmd)
		}
	}
}

func parseNodes(args []string) ([]ned.NodeID, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("need at least one node ID")
	}
	out := make([]ned.NodeID, 0, len(args))
	for _, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad node ID %q: %v", a, err)
		}
		out = append(out, ned.NodeID(v))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nedquery: %v\n", err)
	os.Exit(1)
}
