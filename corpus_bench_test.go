package ned

// BenchmarkCorpusKNN measures the serving hot path of the Corpus query
// engine: one batch of inter-graph KNN queries against a prebuilt index,
// per backend. Run with -benchmem; the allocs/op trajectory across PRs
// tracks how close the TED* pipeline is to allocation-free.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func benchmarkCorpus(b *testing.B, backend Backend) {
	g1 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 7})
	g2 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 8})
	rng := rand.New(rand.NewSource(9))

	const k, nQueries, nCands, l = 3, 16, 300, 5
	queries := make([]Signature, 0, nQueries)
	for _, v := range rng.Perm(g1.NumNodes())[:nQueries] {
		queries = append(queries, NewSignature(g1, NodeID(v), k))
	}
	cands := make([]NodeID, 0, nCands)
	for _, v := range rng.Perm(g2.NumNodes())[:min(nCands, g2.NumNodes())] {
		cands = append(cands, NodeID(v))
	}
	corpus, err := NewCorpus(g2, k, WithBackend(backend), WithNodes(cands))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Materialize the index outside the timed window.
	if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := corpus.KNNSignature(ctx, q, l); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCorpusKNN(b *testing.B) {
	for _, backend := range []Backend{BackendVP, BackendBK, BackendLinear, BackendPrunedLinear} {
		b.Run(fmt.Sprint(backend), func(b *testing.B) { benchmarkCorpus(b, backend) })
	}
}

// BenchmarkCorpusCascade is BenchmarkCorpusKNN with the filter-cascade
// work profile surfaced as custom metrics: per-query TED* evaluations
// and per-tier prunes (size / padding / label-multiset). CI runs it at
// -benchtime=1x so every push compiles the cascade and counts its
// tiers; BENCH_CASCADE.json records the full before/after numbers.
func BenchmarkCorpusCascade(b *testing.B) {
	for _, backend := range []Backend{BackendVP, BackendBK, BackendLinear, BackendPrunedLinear} {
		b.Run(fmt.Sprint(backend), func(b *testing.B) {
			g1 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 7})
			g2 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 8})
			rng := rand.New(rand.NewSource(9))

			const k, nQueries, nCands, l = 3, 16, 300, 5
			queries := make([]Signature, 0, nQueries)
			for _, v := range rng.Perm(g1.NumNodes())[:nQueries] {
				queries = append(queries, NewSignature(g1, NodeID(v), k))
			}
			cands := make([]NodeID, 0, nCands)
			for _, v := range rng.Perm(g2.NumNodes())[:min(nCands, g2.NumNodes())] {
				cands = append(cands, NodeID(v))
			}
			corpus, err := NewCorpus(g2, k, WithBackend(backend), WithNodes(cands))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // materialize
				b.Fatal(err)
			}
			corpus.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := corpus.KNNSignature(ctx, q, l); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			s := corpus.Stats()
			perQuery := float64(b.N * nQueries)
			b.ReportMetric(float64(s.DistanceCalls)/perQuery, "evals/query")
			b.ReportMetric(float64(s.SizePrunes)/perQuery, "sizeprunes/query")
			b.ReportMetric(float64(s.PaddingPrunes)/perQuery, "padprunes/query")
			b.ReportMetric(float64(s.LabelPrunes)/perQuery, "labelprunes/query")
		})
	}
}

// BenchmarkCorpusParallelChurn measures the mixed read/write serving
// path: many goroutines issue KNN queries while every 8th operation
// churns a node (Remove + Insert, with its signature re-extraction).
// Under the view-published sharded engine readers never block on
// writers; the shards=1 vs shards=N spread shows what per-shard
// mutation buys — smaller copy-on-write clones and mutation batches
// that only serialize against their own shard. shards=0 is the engine's
// own GOMAXPROCS-derived default, which the planner must keep within
// 10% of the best hand-picked setting.
func BenchmarkCorpusParallelChurn(b *testing.B) {
	for _, shards := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g1 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 7})
			g2 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 8})
			rng := rand.New(rand.NewSource(9))

			const k, nQueries, nCands, l = 3, 16, 300, 5
			queries := make([]Signature, 0, nQueries)
			for _, v := range rng.Perm(g1.NumNodes())[:nQueries] {
				queries = append(queries, NewSignature(g1, NodeID(v), k))
			}
			cands := make([]NodeID, 0, nCands)
			for _, v := range rng.Perm(g2.NumNodes())[:min(nCands, g2.NumNodes())] {
				cands = append(cands, NodeID(v))
			}
			corpus, err := NewCorpus(g2, k, WithBackend(BackendVP), WithNodes(cands), WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // materialize
				b.Fatal(err)
			}
			var ops atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ops.Add(1)
					if i%8 == 0 {
						v := cands[int(i/8)%len(cands)]
						if err := corpus.Remove(v); err != nil {
							b.Error(err)
							return
						}
						if err := corpus.Insert(v); err != nil {
							b.Error(err)
							return
						}
					} else if _, err := corpus.KNNSignature(ctx, queries[int(i)%len(queries)], l); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
