package ned

// BenchmarkCorpusKNN measures the serving hot path of the Corpus query
// engine: one batch of inter-graph KNN queries against a prebuilt index.
// Run with -benchmem; the allocs/op trajectory across PRs
// tracks how close the TED* pipeline is to allocation-free.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"ned/internal/ned"
	"ned/internal/segment"
)

// benchWorkload draws the inter-graph workload the corpus benchmarks
// share: nQueries query signatures from one PGP analog and nCands
// candidate nodes of a second one, which is returned to index.
func benchWorkload(scale float64, k, nQueries, nCands int) (*Graph, []Signature, []NodeID) {
	g1 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 7})
	g2 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	queries := make([]Signature, 0, nQueries)
	for _, v := range rng.Perm(g1.NumNodes())[:nQueries] {
		queries = append(queries, NewSignature(g1, NodeID(v), k))
	}
	cands := make([]NodeID, 0, nCands)
	for _, v := range rng.Perm(g2.NumNodes())[:min(nCands, g2.NumNodes())] {
		cands = append(cands, NodeID(v))
	}
	return g2, queries, cands
}

// benchmarkCorpusKNN times b.N batches of inter-graph KNN queries and
// returns the corpus (stats reset before the timed window) with the
// number of queries it served.
func benchmarkCorpusKNN(b *testing.B) (*Corpus, int) {
	const k, nQueries, nCands, l = 3, 16, 300, 5
	g2, queries, cands := benchWorkload(0.1, k, nQueries, nCands)
	corpus, err := NewCorpus(g2, k, WithNodes(cands))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Materialize the index outside the timed window.
	if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil {
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
	return corpus, b.N * nQueries
}

func BenchmarkCorpusKNN(b *testing.B) { benchmarkCorpusKNN(b) }

// BenchmarkCorpusCascade is BenchmarkCorpusKNN with the filter-cascade
// work profile surfaced as custom metrics: per-query TED* evaluations
// and per-tier prunes (size / padding / tier 2, the degree-sequence
// bound), and the block rows its size windows bounded. CI runs it at
// -benchtime=1x so every push compiles the cascade and counts its
// tiers. The harness reads the same tiers at serving size as
// ned.{size,padding,label}_survivor_ratio (benchmark/README.md).
func BenchmarkCorpusCascade(b *testing.B) {
	corpus, n := benchmarkCorpusKNN(b)
	s, perQuery := corpus.Stats(), float64(n)
	b.ReportMetric(float64(s.DistanceCalls)/perQuery, "evals/query")
	b.ReportMetric(float64(s.SizePrunes)/perQuery, "sizeprunes/query")
	b.ReportMetric(float64(s.PaddingPrunes)/perQuery, "padprunes/query")
	b.ReportMetric(float64(s.LabelPrunes)/perQuery, "tier2prunes/query")
	b.ReportMetric(float64(s.RowsBound)/perQuery, "rowsbound/query")
}

// The serve-read query mix: k, l and the number of query signatures.
const interGraphK, interGraphL, interGraphQueries = 3, 5, 1600

// interGraphMix returns the serve-read corpus graph, the large PGP
// analog at the harness's fixed graph seed, and its query mix:
// signatures of a 5 %-perturbed second graph, drawn one per size
// stratum from all but the largest 2 %, in shuffled order.
func interGraphMix() (*Graph, []Signature) {
	return interGraphMixAt(4, interGraphQueries)
}

// interGraphMixAt is interGraphMix over the PGP analog at the given
// scale, with n queries.
func interGraphMixAt(scale float64, n int) (*Graph, []Signature) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 42})
	return g, stratifiedSignatures(AnonymizePerturb(g, 0.05, 1).Graph, n)
}

// stratifiedSignatures draws n signatures of g's nodes at k =
// interGraphK, one per size stratum from all but the largest 2 %, in
// shuffled order.
func stratifiedSignatures(g *Graph, n int) []Signature {
	nodes := make([]NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	sigs := SignaturesParallel(g, nodes, interGraphK, BatchOptions{Workers: 2})
	sort.SliceStable(sigs, func(i, j int) bool { return sigs[i].Tree.Size() < sigs[j].Tree.Size() })
	pool := sigs[:len(sigs)*98/100]
	rng := rand.New(rand.NewSource(1))
	queries := make([]Signature, n)
	for i := range queries {
		lo, hi := i*len(pool)/n, (i+1)*len(pool)/n
		queries[i] = pool[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return queries
}

// BenchmarkCorpusInterGraphKNN is an in-process replica of the harness's
// serve-read query mix (interGraphMix), for profiling the engine
// without the daemon (-cpuprofile; EXPERIMENTS.md "One sweep" carries
// the pprof -top): a corpus built at WithWorkers(2) and
// KNNSignature(…, 5) from one client. One iteration is one query, so
// -benchtime 1600x is one pass over the mix.
func BenchmarkCorpusInterGraphKNN(b *testing.B) {
	g, queries := interGraphMix()
	ctx := context.Background()
	corpus, err := NewCorpus(g, interGraphK, WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // warm up
		b.Fatal(err)
	}
	corpus.ResetStats()
	lat := make([]float64, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if _, err := corpus.KNNSignature(ctx, queries[i%len(queries)], interGraphL); err != nil {
			b.Fatal(err)
		}
		lat[i] = float64(time.Since(t0).Microseconds())
	}
	b.StopTimer()
	s := corpus.Stats()
	sort.Float64s(lat)
	b.ReportMetric(float64(s.DistanceCalls)/float64(b.N), "evals/query")
	b.ReportMetric(float64(s.LabelPrunes)/float64(b.N), "tier2prunes/query")
	b.ReportMetric(float64(s.RowsBound)/float64(b.N), "rowsbound/query")
	b.ReportMetric(lat[len(lat)/2], "p50_us")
	b.ReportMetric(lat[len(lat)*95/100], "p95_us")
}

// BenchmarkCorpusBuild measures what learning a new graph costs before
// its first answer: NewCorpus over the harness's PGP analog (scales 1
// and 4, seed 42, k=3) plus the first KNN. NewCorpus does the build —
// one k-adjacent extraction straight into its row per node, labelled
// against the worker's private dictionary, then the canonical pass that
// numbers the shapes and rewrites the rows (canon_ms, its wall time),
// then one compile of the rows into rank order. workers=1 against
// workers=2 shows whether extraction scales across the workers; MB/op is
// what one build allocates, in 10^6 bytes, and gc/build the collections
// it set off.
func BenchmarkCorpusBuild(b *testing.B) {
	ctx := context.Background()
	for _, scale := range []float64{1, 4} {
		g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 42})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("pgp=x%g/workers=%d", scale, workers), func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				canon := ned.CanonTime()
				for i := 0; i < b.N; i++ {
					c, err := NewCorpus(g, 3, WithWorkers(workers))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := c.KNN(ctx, 0, 5); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/build")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "MB/op")
				b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/build")
				b.ReportMetric(float64((ned.CanonTime()-canon).Microseconds())/1e3/float64(b.N), "canon_ms")
			})
		}
	}
}

// BenchmarkCorpusResidency measures what a corpus keeps resident over
// the harness's PGP analog (seed 42, k=3) at scales 1, 4 and 16, without
// a daemon. built-B/node is the live heap NewCorpus + the first KNN
// adds, per node; recovered-B/node is the live heap OpenDurable + the
// first KNN adds in a corpus recovered from that corpus's checkpoint
// (the embedded graph included); dict-B/node is the part of
// built-B/node the shape dictionary holds; ckpt-alloc-B/B is what one
// Checkpoint allocates per byte of the segment it writes.
func BenchmarkCorpusResidency(b *testing.B) {
	for _, scale := range []float64{1, 4, 16} {
		b.Run(fmt.Sprintf("pgp=x%g", scale), func(b *testing.B) {
			benchmarkCorpusResidency(b, MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 42}))
		})
	}
}

func benchmarkCorpusResidency(b *testing.B, g *Graph) {
	ctx := context.Background()
	nodes := float64(g.NumNodes())
	var built, recovered, ckpt, dict float64
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		base := liveHeap()
		c, err := NewCorpus(g, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.KNN(ctx, 0, 5); err != nil {
			b.Fatal(err)
		}
		built += liveHeap() - base
		dict += float64(c.dict.Bytes())
		if err := c.MakeDurable(dir, FsyncNone); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fi, err := os.Stat(segment.CheckpointPath(dir, 1))
		if err != nil {
			b.Fatal(err)
		}
		ckpt += float64(after.TotalAlloc-before.TotalAlloc) / float64(fi.Size())
		if err := c.CloseDurable(); err != nil {
			b.Fatal(err)
		}
		c = nil

		base = liveHeap()
		r, err := OpenDurable(dir, FsyncNone)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.KNN(ctx, 0, 5); err != nil {
			b.Fatal(err)
		}
		recovered += liveHeap() - base
		if err := r.CloseDurable(); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N)
	b.ReportMetric(built/n/nodes, "built-B/node")
	b.ReportMetric(recovered/n/nodes, "recovered-B/node")
	b.ReportMetric(dict/n/nodes, "dict-B/node")
	b.ReportMetric(ckpt/n, "ckpt-alloc-B/B")
}

// liveHeap is the heap that survives a collection.
func liveHeap() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// BenchmarkCorpusMutation measures what one write to a built corpus
// costs: the serve-mixed writer's alternating Remove and Insert of a
// node (each one mutation, its re-extraction included) over the PGP
// analog (scale 4, seed 42, k=3), in memory and durable with
// FsyncAlways. clone-B/mut is Stats().ShardCloneBytes per mutation: what
// preparing the successor epoch copied, folds included.
func BenchmarkCorpusMutation(b *testing.B) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 4, Seed: 42})
	for _, durable := range []bool{false, true} {
		b.Run(fmt.Sprintf("durable=%v", durable), func(b *testing.B) {
			c, err := NewCorpus(g, 3)
			if err != nil {
				b.Fatal(err)
			}
			if durable {
				if err := c.MakeDurable(b.TempDir(), FsyncAlways); err != nil {
					b.Fatal(err)
				}
				defer c.CloseDurable()
			}
			before := c.Stats().ShardCloneBytes[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := NodeID(i / 2 * 7919 % g.NumNodes())
				if i%2 == 0 {
					err = c.Remove(v)
				} else {
					err = c.Insert(v)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/mut")
			b.ReportMetric(float64(c.Stats().ShardCloneBytes[0]-before)/float64(b.N), "clone-B/mut")
		})
	}
}

// BenchmarkCorpusParallelChurn measures the mixed read/write serving
// path: many goroutines issue KNN queries while every 8th operation
// churns a node (Remove + Insert, with its signature re-extraction).
// Readers never block on writers: they load the published view, while
// writers extract outside the one write lock and queue only for the
// splice. cands=300 is a PGP analog at scale 0.1, cands=10000 one at
// scale 4, the harness's serving size.
func BenchmarkCorpusParallelChurn(b *testing.B) {
	for _, size := range []struct {
		scale float64
		cands int
	}{{0.1, 300}, {4, 10000}} {
		b.Run(fmt.Sprintf("cands=%d", size.cands), func(b *testing.B) {
			const k, nQueries, l = 3, 16, 5
			g2, queries, cands := benchWorkload(size.scale, k, nQueries, size.cands)
			corpus, err := NewCorpus(g2, k, WithNodes(cands))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // warm up
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
