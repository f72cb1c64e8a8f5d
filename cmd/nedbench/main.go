// Command nedbench regenerates the tables and figures of the NED paper's
// evaluation section (§13) on the synthetic dataset analogs and prints
// them as plain-text tables (see EXPERIMENTS.md for the catalog).
//
// Usage:
//
//	nedbench [-exp all|table2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|hausdorff|directed|weighted|ablation|corpus|churn|shard|plan|cascade|serve|recover]
//	         [-scale 1.0] [-pairs 400] [-queries 100] [-candidates 1000] [-seed 1]
//	         [-json results.json]
//
// The defaults run every experiment at laptop scale in a few minutes;
// -scale trades fidelity for speed. -json additionally writes every
// produced table to a machine-readable JSON file (use "-" for stdout),
// the BENCH_*.json-style artifact the perf trajectory across PRs is
// tracked with.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ned"
	"ned/internal/bench"
	"ned/internal/datasets"
	"ned/internal/serve"
)

// jsonResult is the machine-readable form of one nedbench invocation.
type jsonResult struct {
	Experiment string        `json:"experiment"`
	Scale      float64       `json:"scale"`
	Seed       int64         `json:"seed"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Tables     []bench.Table `json:"tables"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run (all, table2, fig5, fig6, fig7, fig8, fig9, fig10, fig11, hausdorff, directed, weighted, ablation, corpus, churn, shard, plan, cascade, serve, recover)")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		pairs      = flag.Int("pairs", 400, "node pairs per timing experiment")
		queries    = flag.Int("queries", 100, "query nodes per query experiment")
		candidates = flag.Int("candidates", 1000, "candidate pool size")
		seed       = flag.Int64("seed", 1, "random seed")
		jsonPath   = flag.String("json", "", "also write results as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()

	o := bench.Options{
		Scale:      *scale,
		Pairs:      *pairs,
		Queries:    *queries,
		Candidates: *candidates,
		Seed:       *seed,
	}

	var tables []bench.Table
	emit := func(ts ...bench.Table) {
		for _, t := range ts {
			t.Fprint(os.Stdout)
			tables = append(tables, t)
		}
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()
	ran := 0

	if run("table2") {
		emit(bench.Table2(o))
		ran++
	}
	if run("fig5") {
		t1, t2 := bench.Figure5(o)
		emit(t1, t2)
		ran++
	}
	if run("fig6") {
		emit(bench.Figure6(o))
		ran++
	}
	if run("fig7") {
		emit(bench.Figure7a(o), bench.Figure7b(o))
		ran++
	}
	if run("fig8") {
		emit(bench.Figure8(o, 10))
		ran++
	}
	if run("fig9") {
		emit(bench.Figure9a(o), bench.Figure9b(o))
		ran++
	}
	if run("fig10") {
		emit(bench.Figure10(o, datasets.PGP, 5, 0.01))
		emit(bench.Figure10(o, datasets.DBLP, 10, 0.05))
		ran++
	}
	if run("fig11") {
		emit(bench.Figure11a(o), bench.Figure11b(o))
		ran++
	}
	if run("hausdorff") {
		emit(bench.AppendixHausdorff(o))
		ran++
	}
	if run("directed") {
		emit(bench.ExtensionDirected(o))
		ran++
	}
	if run("weighted") {
		emit(bench.ExtensionWeighted(o))
		ran++
	}
	if run("ablation") {
		emit(bench.AblationMatching(o), bench.AblationIndexes(o))
		ran++
	}
	if run("corpus") {
		emit(corpusExperiment(o))
		ran++
	}
	if run("churn") {
		emit(churnExperiment(o))
		ran++
	}
	if run("shard") {
		emit(shardExperiment(o))
		ran++
	}
	if run("plan") {
		emit(planExperiment(o))
		ran++
	}
	if run("cascade") {
		emit(cascadeExperiment(o))
		ran++
	}
	if run("serve") {
		emit(serveExperiment(o))
		ran++
	}
	if run("recover") {
		emit(recoverExperiment(o))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nedbench: unknown experiment %q\n", *exp)
		fmt.Fprintf(os.Stderr, "valid: all table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 hausdorff directed weighted ablation corpus churn shard plan cascade serve recover\n")
		os.Exit(2)
	}
	elapsed := time.Since(start)
	fmt.Printf("%s\ncompleted in %s\n", strings.Repeat("-", 40), elapsed.Round(time.Millisecond))

	if *jsonPath != "" {
		res := jsonResult{
			Experiment: *exp,
			Scale:      *scale,
			Seed:       *seed,
			ElapsedMS:  float64(elapsed.Nanoseconds()) / 1e6,
			Tables:     tables,
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}

// churnExperiment measures the dynamic corpus under a mixed
// insert/remove/query workload: each round removes a batch of indexed
// nodes, re-inserts the batch evicted the round before, and times the
// query set — so query latency is sampled while tombstones and append
// tails accumulate and amortized rebuilds fire. After the final round
// every backend's answers are checked node-for-node against a corpus
// freshly built over the same live node set (the churn-equivalence
// contract, here verified at benchmark scale).
func churnExperiment(o bench.Options) bench.Table {
	o.Normalize()
	const kDepth = 3
	const rounds = 6
	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	g2 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 71))

	queries := make([]ned.Signature, 0, o.Queries)
	for _, v := range rng.Perm(g1.NumNodes())[:min(o.Queries, g1.NumNodes())] {
		queries = append(queries, ned.NewSignature(g1, ned.NodeID(v), kDepth))
	}
	cands := make([]ned.NodeID, 0, o.Candidates)
	for _, v := range rng.Perm(g2.NumNodes())[:min(o.Candidates, g2.NumNodes())] {
		cands = append(cands, ned.NodeID(v))
	}
	batch := max(1, len(cands)/12)
	t := bench.Table{
		Title: "Dynamic corpus: KNN latency under churn",
		Note: fmt.Sprintf("%d candidates, %d rounds x (%d removed + %d re-inserted + %d queries), PGP analog, k=%d",
			len(cands), rounds, batch, batch, len(queries), kDepth),
		Header: []string{"backend", "static ms/query", "churn ms/query", "mutations", "rebuilds", "final stale", "mismatches"},
	}

	ctx := context.Background()
	for _, backend := range []ned.Backend{
		ned.BackendLinear, ned.BackendPrunedLinear, ned.BackendVP, ned.BackendBK,
	} {
		corpus, err := ned.NewCorpus(g2, kDepth, ned.WithBackend(backend), ned.WithNodes(cands))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		// Static baseline: the same queries against the untouched index.
		if _, err := corpus.BatchKNN(ctx, queries, 1); err != nil { // materialize
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := corpus.BatchKNN(ctx, queries, 1); err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		staticPerQuery := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(len(queries))

		live := append([]ned.NodeID(nil), cands...)
		var evicted []ned.NodeID
		mutations := 0
		var churnTotal time.Duration
		for round := 0; round < rounds; round++ {
			// Re-insert last round's eviction, then evict a fresh batch.
			if err := corpus.Insert(evicted...); err != nil {
				fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
				os.Exit(1)
			}
			live = append(live, evicted...)
			mutations += len(evicted)
			idx := rng.Perm(len(live))[:batch]
			evicted = evicted[:0]
			for _, i := range idx {
				evicted = append(evicted, live[i])
			}
			if err := corpus.Remove(evicted...); err != nil {
				fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
				os.Exit(1)
			}
			kept := live[:0]
			gone := map[ned.NodeID]bool{}
			for _, v := range evicted {
				gone[v] = true
			}
			for _, v := range live {
				if !gone[v] {
					kept = append(kept, v)
				}
			}
			live = kept
			mutations += len(evicted)

			start := time.Now()
			if _, err := corpus.BatchKNN(ctx, queries, 1); err != nil {
				fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
				os.Exit(1)
			}
			churnTotal += time.Since(start)
		}
		churnPerQuery := float64(churnTotal.Nanoseconds()) / 1e6 / float64(rounds*len(queries))

		// Equivalence check against a from-scratch rebuild.
		res, err := corpus.BatchKNN(ctx, queries, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		fresh, err := ned.NewCorpus(g2, kDepth, ned.WithBackend(ned.BackendLinear), ned.WithNodes(live))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		want, err := fresh.BatchKNN(ctx, queries, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		mismatches := 0
		for i := range res {
			if len(res[i]) != len(want[i]) ||
				(len(res[i]) > 0 && res[i][0] != want[i][0]) {
				mismatches++
			}
		}

		stats := corpus.Stats()
		t.AddRow(backend.String(),
			fmt.Sprintf("%.3f", staticPerQuery),
			fmt.Sprintf("%.3f", churnPerQuery),
			fmt.Sprint(mutations),
			fmt.Sprint(stats.Rebuilds),
			fmt.Sprintf("%.2f", stats.StaleRatio),
			fmt.Sprint(mismatches))
	}
	return t
}

// shardExperiment measures the sharded engine's scaling: the same mixed
// read/write workload — concurrent reader goroutines issuing KNN
// queries while one writer continuously churns nodes — against shard
// counts 1, 2, 4, and 8. Each shard owns its own epoch-published index,
// so reads never block on mutations and a mutation only serializes
// against its own shard; the table shows what that buys (or costs, on
// few cores, where fan-out cannot parallelize and smaller metric trees
// prune less).
func shardExperiment(o bench.Options) bench.Table {
	o.Normalize()
	const kDepth = 3
	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	g2 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 81))

	queries := make([]ned.Signature, 0, o.Queries)
	for _, v := range rng.Perm(g1.NumNodes())[:min(o.Queries, g1.NumNodes())] {
		queries = append(queries, ned.NewSignature(g1, ned.NodeID(v), kDepth))
	}
	cands := make([]ned.NodeID, 0, o.Candidates)
	for _, v := range rng.Perm(g2.NumNodes())[:min(o.Candidates, g2.NumNodes())] {
		cands = append(cands, ned.NodeID(v))
	}
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	perReader := max(1, len(queries)/2)

	t := bench.Table{
		Title: "Sharded corpus: mixed read/write throughput vs shard count",
		Note: fmt.Sprintf("%d candidates, %d readers x %d KNN queries with 1 continuous churn writer, PGP analog, k=%d, backend=vp, GOMAXPROCS=%d",
			len(cands), readers, perReader, kDepth, runtime.GOMAXPROCS(0)),
		Header: []string{"shards", "wall ms", "queries/s", "mutations", "rebuilds", "mismatches"},
	}

	ctx := context.Background()
	var exact []ned.Neighbor
	for _, shards := range []int{1, 2, 4, 8} {
		corpus, err := ned.NewCorpus(g2, kDepth, ned.WithBackend(ned.BackendVP),
			ned.WithNodes(cands), ned.WithShards(shards))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // materialize
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}

		// One writer churns the second half of the candidate pool until
		// the readers finish; readers hammer KNN over the stable first
		// half's answers.
		stop := make(chan struct{})
		var writerDone sync.WaitGroup
		var mutations int
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			wrng := rand.New(rand.NewSource(o.Seed + 91))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cands[len(cands)/2+wrng.Intn(len(cands)-len(cands)/2)]
				if err := corpus.Remove(v); err != nil {
					fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
					os.Exit(1)
				}
				if err := corpus.Insert(v); err != nil {
					fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
					os.Exit(1)
				}
				mutations += 2
			}
		}()

		var readersDone sync.WaitGroup
		start := time.Now()
		for w := 0; w < readers; w++ {
			readersDone.Add(1)
			go func(seed int64) {
				defer readersDone.Done()
				qrng := rand.New(rand.NewSource(seed))
				for i := 0; i < perReader; i++ {
					q := queries[qrng.Intn(len(queries))]
					if _, err := corpus.KNNSignature(ctx, q, 5); err != nil {
						fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
						os.Exit(1)
					}
				}
			}(o.Seed + int64(w))
		}
		readersDone.Wait()
		wall := time.Since(start)
		close(stop)
		writerDone.Wait()

		// Sharded answers on the stable half must match shards=1 exactly.
		mismatches := 0
		res, err := corpus.KNNSignature(ctx, queries[0], 10)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		if exact == nil {
			exact = res
		} else {
			n := len(res)
			if len(exact) > n {
				n = len(exact)
			}
			for i := 0; i < n; i++ {
				if i >= len(res) || i >= len(exact) || res[i] != exact[i] {
					mismatches++
				}
			}
		}

		stats := corpus.Stats()
		totalQueries := readers * perReader
		t.AddRow(fmt.Sprint(shards),
			fmt.Sprintf("%.1f", float64(wall.Nanoseconds())/1e6),
			fmt.Sprintf("%.1f", float64(totalQueries)/wall.Seconds()),
			fmt.Sprint(mutations),
			fmt.Sprint(stats.Rebuilds),
			fmt.Sprint(mismatches))
	}
	return t
}

// planExperiment measures adaptive placement against the fixed hash: a
// skewed-hotspot mixed read/write workload (all writes concentrated on
// nodes that hash into one shard) driven against the same 8-shard
// corpus with and without rebalancer ticks. Under fixed hash placement
// every hot write pays a copy-on-write epoch clone of the whole hot
// shard; the rebalancer splits the hot shard until each write clones a
// fraction of it, so mixed throughput rises with zero answer drift.
func planExperiment(o bench.Options) bench.Table {
	o.Normalize()
	const kDepth = 2
	const base = 8        // seed shard count under test
	const hotSize = 32    // nodes carrying every write
	const writesPerQ = 16 // churned nodes per query (skewed, write-heavy)
	const tickEvery = 8   // workload cycles between rebalancer ticks
	window := 1200 * time.Millisecond

	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	g2 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 101))
	die := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
	}

	queries := make([]ned.Signature, 0, o.Queries)
	for _, v := range rng.Perm(g1.NumNodes())[:min(o.Queries, g1.NumNodes())] {
		queries = append(queries, ned.NewSignature(g1, ned.NodeID(v), kDepth))
	}
	cands := make([]ned.NodeID, 0, o.Candidates)
	for _, v := range rng.Perm(g2.NumNodes())[:min(o.Candidates, g2.NumNodes())] {
		cands = append(cands, ned.NodeID(v))
	}
	var hot []ned.NodeID
	for _, v := range cands {
		if ned.HashShard(v, base) == 0 && len(hot) < hotSize {
			hot = append(hot, v)
		}
	}

	t := bench.Table{
		Title: "Adaptive sharding: skewed-hotspot mixed read/write throughput vs fixed hash",
		Note: fmt.Sprintf("%d candidates in %d shards, all writes on %d nodes hashing into shard 0, %d Remove+Insert pairs per KNN(5) query, %s window per config, PGP analog, k=%d; adaptive = RebalanceTick every %d cycles",
			len(cands), base, len(hot), writesPerQ, window, kDepth, tickEvery),
		Header: []string{"backend", "placement", "ops/s", "queries", "mutations", "splits", "merges", "overrides", "vs fixed", "mismatches"},
	}

	ctx := context.Background()
	pol := ned.RebalancePolicy{MinShardNodes: 8, SplitMinMutations: 4, SplitFraction: 0.25}
	for _, backend := range []ned.Backend{ned.BackendPrunedLinear, ned.BackendVP} {
		// Ground truth for the mismatch column: churn always restores
		// membership, so a fresh single-shard corpus over the full pool.
		fresh, err := ned.NewCorpus(g2, kDepth, ned.WithBackend(ned.BackendLinear), ned.WithNodes(cands))
		die(err)
		want, err := fresh.BatchKNN(ctx, queries, 1)
		die(err)

		var fixedOps float64
		for _, adaptive := range []bool{false, true} {
			corpus, err := ned.NewCorpus(g2, kDepth, ned.WithBackend(backend),
				ned.WithNodes(cands), ned.WithShards(base))
			die(err)
			_, err = corpus.KNNSignature(ctx, queries[0], 1) // materialize
			die(err)

			nQueries, nMutations, cycles := 0, 0, 0
			deadline := time.Now().Add(window)
			start := time.Now()
			for time.Now().Before(deadline) {
				for j := 0; j < writesPerQ; j++ {
					v := hot[(cycles*writesPerQ+j)%len(hot)]
					die(corpus.Remove(v))
					die(corpus.Insert(v))
					nMutations += 2
				}
				_, err := corpus.KNNSignature(ctx, queries[cycles%len(queries)], 5)
				die(err)
				nQueries++
				cycles++
				if adaptive && cycles%tickEvery == 0 {
					corpus.RebalanceTick(pol)
				}
			}
			wall := time.Since(start)
			opsPerSec := float64(nQueries+nMutations) / wall.Seconds()

			res, err := corpus.BatchKNN(ctx, queries, 1)
			die(err)
			mismatches := 0
			for i := range res {
				if len(res[i]) == 0 || len(want[i]) == 0 ||
					res[i][0].Dist != want[i][0].Dist {
					mismatches++
				}
			}

			placement, ratio := "fixed hash", ""
			if adaptive {
				placement = "adaptive"
				ratio = fmt.Sprintf("%.2fx", opsPerSec/fixedOps)
			} else {
				fixedOps = opsPerSec
				ratio = "1.00x"
			}
			stats := corpus.Stats()
			t.AddRow(backend.String(), placement,
				fmt.Sprintf("%.1f", opsPerSec),
				fmt.Sprint(nQueries),
				fmt.Sprint(nMutations),
				fmt.Sprint(stats.ShardSplits),
				fmt.Sprint(stats.ShardMerges),
				fmt.Sprint(stats.PlacementOverrides),
				ratio,
				fmt.Sprint(mismatches))
		}
	}
	return t
}

// cascadeExperiment profiles the filter–verify cascade per backend:
// the same batch of inter-graph KNN queries, reporting per query how
// many candidate evaluations each precompiled tier dismissed (size gap,
// padding over flat level vectors, per-level label multisets), how many
// survivors were abandoned mid-TED* by the budget, and how many ran to
// completion — with the answers asserted node-identical to the exact
// linear scan, since the cascade may only skip work, never change
// results.
func cascadeExperiment(o bench.Options) bench.Table {
	o.Normalize()
	t := bench.Table{
		Title:  "Filter cascade: per-tier candidate pruning across backends (per-query mean)",
		Note:   fmt.Sprintf("%d candidates, %d KNN(5) queries, PGP analog, k=3; prune tiers are exact-preserving lower bounds", o.Candidates, o.Queries),
		Header: []string{"backend", "time (ms)", "TED* evals", "size prunes", "padding prunes", "label prunes", "early exits", "mismatches"},
	}
	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	g2 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 67))

	queries := make([]ned.Signature, 0, o.Queries)
	for _, v := range rng.Perm(g1.NumNodes())[:min(o.Queries, g1.NumNodes())] {
		queries = append(queries, ned.NewSignature(g1, ned.NodeID(v), 3))
	}
	cands := make([]ned.NodeID, 0, o.Candidates)
	for _, v := range rng.Perm(g2.NumNodes())[:min(o.Candidates, g2.NumNodes())] {
		cands = append(cands, ned.NodeID(v))
	}

	// Ground truth is deliberately cascade-free: the exhaustive
	// unbudgeted TopL over raw signatures, so a bound bug shared by
	// every backend still shows up as mismatches.
	candSigs := ned.Signatures(g2, cands, 3)
	exact := make([][]ned.Neighbor, len(queries))
	for i, q := range queries {
		exact[i] = ned.TopL(q, candSigs, 5)
	}

	ctx := context.Background()
	for _, backend := range []ned.Backend{
		ned.BackendLinear, ned.BackendPrunedLinear, ned.BackendVP, ned.BackendBK,
	} {
		corpus, err := ned.NewCorpus(g2, 3, ned.WithBackend(backend), ned.WithNodes(cands))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // materialize
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		corpus.ResetStats()
		start := time.Now()
		res, err := corpus.BatchKNN(ctx, queries, 5)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		mismatches := 0
		for i := range res {
			if fmt.Sprint(res[i]) != fmt.Sprint(exact[i]) {
				mismatches++
			}
		}
		stats := corpus.Stats()
		nq := float64(len(queries))
		per := func(v int64) string { return fmt.Sprintf("%.1f", float64(v)/nq) }
		t.AddRow(backend.String(),
			fmt.Sprintf("%.3f", float64(elapsed.Nanoseconds())/1e6/nq),
			per(stats.DistanceCalls),
			per(stats.SizePrunes),
			per(stats.PaddingPrunes),
			per(stats.LabelPrunes),
			per(stats.EarlyExits),
			fmt.Sprint(mismatches))
	}
	return t
}

// serveExperiment measures the nedserve HTTP tier end to end: an
// in-process server over a PGP-analog corpus, swept across client
// concurrency levels. Each level fires its queries from that many
// concurrent HTTP clients and reports throughput, p50/p99 request
// latency, what fraction of the KNN requests the server coalesced into
// shared BatchKNN passes, and how long those requests sat queued for
// their pass — the first should climb with concurrency from zero at one
// client, the second is what batching costs the requests it batches.
func serveExperiment(o bench.Options) bench.Table {
	o.Normalize()
	const kDepth = 3

	srv := serve.New(serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tenant, err := serve.CreateTenant(&serve.CreateRequest{
		Name: "bench", K: kDepth, Dataset: "PGP", Scale: o.Scale, Seed: o.Seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Registry().Put(tenant); err != nil {
		fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
		os.Exit(1)
	}
	tenant.Corpus.Rebuild() // materialize outside the measured windows
	nodes := tenant.Corpus.Stats().Nodes

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	knnURL := ts.URL + "/v1/corpora/bench/knn"
	doKNN := func(node int) (time.Duration, error) {
		body, _ := json.Marshal(map[string]int{"node": node, "l": 5})
		start := time.Now()
		resp, err := client.Post(knnURL, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("knn status %d", resp.StatusCode)
		}
		return time.Since(start), nil
	}

	t := bench.Table{
		Title: "nedserve: HTTP KNN latency vs client concurrency",
		Note: fmt.Sprintf("PGP analog (%d nodes, k=%d), KNN(5) over HTTP, in-process server, load-adaptive coalescing: "+
			"%d pass slots (the executor width), a request queues only while all are busy; queue wait ms is the mean over the requests that queued",
			nodes, kDepth, runtime.GOMAXPROCS(0)),
		Header: []string{"concurrency", "queries", "qps", "p50 ms", "p99 ms", "coalesced %", "queue wait ms", "errors"},
	}

	for _, conc := range []int{1, 4, 16, 64} {
		total := max(o.Queries, conc*8)
		before := srv.Stats()
		durations := make([]time.Duration, total)
		var errCount int64
		var wg sync.WaitGroup
		var next int64
		start := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= total {
						return
					}
					d, err := doKNN(rng.Intn(nodes))
					if err != nil {
						atomic.AddInt64(&errCount, 1)
						continue
					}
					durations[i] = d
				}
			}(o.Seed + int64(conc*1000+w))
		}
		wg.Wait()
		wall := time.Since(start)
		after := srv.Stats()

		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(durations)-1))
			return float64(durations[i].Nanoseconds()) / 1e6
		}
		coalesced := after.CoalescedRequests - before.CoalescedRequests
		queueWait := 0.0 // mean over the requests that queued; none did if the count stood still
		if waits := after.CoalesceQueueWaits - before.CoalesceQueueWaits; waits > 0 {
			queueWait = float64(after.CoalesceQueueWaitNS-before.CoalesceQueueWaitNS) / 1e6 / float64(waits)
		}
		t.AddRow(fmt.Sprint(conc),
			fmt.Sprint(total),
			fmt.Sprintf("%.1f", float64(total)/wall.Seconds()),
			fmt.Sprintf("%.3f", pct(0.50)),
			fmt.Sprintf("%.3f", pct(0.99)),
			fmt.Sprintf("%.1f", 100*float64(coalesced)/float64(total)),
			fmt.Sprintf("%.3f", queueWait),
			fmt.Sprint(errCount))
	}
	return t
}

// recoverExperiment measures restart-to-first-query time across the
// persistence formats and backends: the same PGP-analog corpus written
// as a v2 text snapshot and as a binary segment, each loaded from disk
// and asked its first KNN query (median of three trials), plus a
// durable-directory recovery (checkpoint segment + mutation-log replay
// via OpenDurable) after a burst of logged mutations.
//
// The linear-backend rows isolate what the formats themselves cost —
// index build is trivial, so text pays re-parsing every tree and
// recompiling every cascade profile against the segment's
// deserialize-and-validate. The vp-backend rows measure a production
// restart: the VP metric tree costs O(n log n) TED* evaluations to
// build, the segment persists the built structure (restored without a
// single metric call), and the text snapshot — which cannot carry it —
// pays the whole re-index inside its first query.
func recoverExperiment(o bench.Options) bench.Table {
	o.Normalize()
	const kDepth = 3
	const walBurst = 128
	g := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	ctx := context.Background()

	tmp, err := os.MkdirTemp("", "nedbench-recover-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)
	die := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
	}
	writeTo := func(name string, write func(io.Writer) error) (string, int64) {
		path := tmp + "/" + name
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
		}
		if err == nil {
			err = f.Close()
		}
		st, statErr := os.Stat(path)
		if err == nil {
			err = statErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: writing %s: %v\n", name, err)
			os.Exit(1)
		}
		return path, st.Size()
	}

	t := bench.Table{
		Title: "Durable persistence: restart-to-first-query by format and backend",
		Note: fmt.Sprintf("PGP analog (%d nodes, k=%d), first query = KNN(5); linear rows isolate format cost, vp rows add the metric index the segment persists and text must rebuild; durable rows replay a %d-record mutation log onto their checkpoint; median of 3",
			g.NumNodes(), kDepth, 2*walBurst),
		Header: []string{"backend", "format", "bytes", "load ms", "first query ms", "restart ms", "speedup vs text"},
	}

	for _, backend := range []ned.Backend{ned.BackendLinear, ned.BackendVP} {
		corpus, err := ned.NewCorpus(g, kDepth, ned.WithBackend(backend))
		die(err)
		corpus.Rebuild()
		sig, err := corpus.Signature(0)
		die(err)
		// Warm query: builds the index structures so a VP snapshot has a
		// built tree to persist — the state a serving process restarts
		// from.
		_, err = corpus.KNNSignature(ctx, sig, 5)
		die(err)

		txtPath, txtBytes := writeTo("corpus-"+backend.String()+".nedcorpus", corpus.Snapshot)
		segPath, segBytes := writeTo("corpus-"+backend.String()+".nedseg", corpus.SnapshotSegment)

		// The durable directory: attach, burst logged mutations, abandon
		// without a drain checkpoint — recovery must replay the log tail.
		durDir := tmp + "/durable-" + backend.String()
		die(corpus.MakeDurable(durDir, ned.FsyncNone))
		for i := 0; i < walBurst; i++ {
			v := ned.NodeID(1 + i%(g.NumNodes()-1))
			if err := corpus.Remove(v); err == nil {
				err = corpus.Insert(v)
			}
			die(err)
		}
		die(corpus.CloseDurable())
		var durBytes int64
		durEntries, _ := os.ReadDir(durDir)
		for _, e := range durEntries {
			if st, err := e.Info(); err == nil {
				durBytes += st.Size()
			}
		}

		// measure times load-then-first-query three times, keeping medians.
		measure := func(load func() (*ned.Corpus, error)) (loadMS, queryMS float64) {
			var loads, queries []float64
			for trial := 0; trial < 3; trial++ {
				start := time.Now()
				c, err := load()
				die(err)
				loads = append(loads, float64(time.Since(start).Nanoseconds())/1e6)
				start = time.Now()
				_, err = c.KNNSignature(ctx, sig, 5)
				die(err)
				queries = append(queries, float64(time.Since(start).Nanoseconds())/1e6)
			}
			sort.Float64s(loads)
			sort.Float64s(queries)
			return loads[1], queries[1]
		}
		fromFile := func(path string) func() (*ned.Corpus, error) {
			return func() (*ned.Corpus, error) {
				f, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return ned.LoadCorpus(f)
			}
		}

		var textTotal float64
		for _, row := range []struct {
			name  string
			bytes int64
			load  func() (*ned.Corpus, error)
		}{
			{"text v2", txtBytes, fromFile(txtPath)},
			{"binary segment", segBytes, fromFile(segPath)},
			{"durable dir (ckpt+wal)", durBytes, func() (*ned.Corpus, error) {
				c, err := ned.OpenDurable(durDir, ned.FsyncNone)
				if err != nil {
					return nil, err
				}
				return c, c.CloseDurable()
			}},
		} {
			loadMS, queryMS := measure(row.load)
			total := loadMS + queryMS
			if row.name == "text v2" {
				textTotal = total
			}
			t.AddRow(backend.String(), row.name,
				fmt.Sprint(row.bytes),
				fmt.Sprintf("%.1f", loadMS),
				fmt.Sprintf("%.2f", queryMS),
				fmt.Sprintf("%.1f", total),
				fmt.Sprintf("%.1fx", textTotal/total))
		}
	}
	return t
}

// corpusExperiment drives the public Corpus query engine end to end:
// the same batch of inter-graph KNN queries served by each backend,
// reporting wall time, TED* evaluations per query, and how much of the
// candidate work the budget pipeline skipped (early exits mid-TED* and
// padding-lower-bound prunes). Distances are asserted equal across
// backends against the exact linear scan.
func corpusExperiment(o bench.Options) bench.Table {
	o.Normalize()
	t := bench.Table{
		Title:  "Corpus engine: BatchKNN across backends (per-query mean)",
		Note:   fmt.Sprintf("%d candidates, %d queries, PGP analog, k=3", o.Candidates, o.Queries),
		Header: []string{"backend", "time (ms)", "TED* evals/query", "early exits/query", "lb prunes/query", "scan mismatches"},
	}
	g1 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed})
	g2 := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 61))

	queries := make([]ned.Signature, 0, o.Queries)
	for _, v := range rng.Perm(g1.NumNodes())[:min(o.Queries, g1.NumNodes())] {
		queries = append(queries, ned.NewSignature(g1, ned.NodeID(v), 3))
	}
	cands := make([]ned.NodeID, 0, o.Candidates)
	for _, v := range rng.Perm(g2.NumNodes())[:min(o.Candidates, g2.NumNodes())] {
		cands = append(cands, ned.NodeID(v))
	}

	ctx := context.Background()
	var exact [][]ned.Neighbor
	for _, backend := range []ned.Backend{
		ned.BackendLinear, ned.BackendPrunedLinear, ned.BackendVP, ned.BackendBK,
	} {
		corpus, err := ned.NewCorpus(g2, 3, ned.WithBackend(backend), ned.WithNodes(cands))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		// Materialize the index outside the timed window.
		if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		corpus.ResetStats()
		start := time.Now()
		res, err := corpus.BatchKNN(ctx, queries, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		mismatches := 0
		if exact == nil {
			exact = res
		} else {
			for i := range res {
				if res[i][0].Dist != exact[i][0].Dist {
					mismatches++
				}
			}
		}
		stats := corpus.Stats()
		nq := int64(len(queries))
		t.AddRow(backend.String(),
			fmt.Sprintf("%.3f", float64(elapsed.Nanoseconds())/1e6/float64(len(queries))),
			fmt.Sprint(stats.DistanceCalls/nq),
			fmt.Sprint(stats.EarlyExits/nq),
			fmt.Sprint(stats.LowerBoundPrunes/nq),
			fmt.Sprint(mismatches))
	}
	return t
}
