package ned

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ned/internal/anonymize"
	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/ted"
)

// TestSweepPartitionInvariance pins that splitting a corpus into shards
// moves work between counter sets and changes nothing else. The same
// profiled items split 1, 2, 3, 4, 7 and 40 ways, with an empty shard
// among them, are swept by FanKNN on executors of width 1, 2 and 4,
// before and after churn, at l ∈ {1, 5, n+1}:
//   - every answer equals the exhaustive TopL oracle over the live items;
//   - per query, DistanceCalls + LowerBoundPrunes summed over the shards
//     equals the live candidates — each is counted once, in its shard;
//   - at width 1 the counts repeat exactly from run to run and stay
//     within 1 % of the one-shard count (one threshold for all shards;
//     only the tie order among equal bounds differs);
//   - a context cancelled mid-sweep returns its error and no answer;
//   - 64-query batches from 4 goroutines on one width-2 executor, each
//     query sweeping from inside a pool worker as Corpus.BatchKNN does,
//     equal the oracle.
func TestSweepPartitionInvariance(t *testing.T) {
	ctx := context.Background()
	g := randomTestGraph(150, 450, 11)
	gq := randomTestGraph(60, 130, 12)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	sigs := Signatures(g, nodes, 2)
	items, dict := ProfileSignatures(sigs)
	var qsigs []Signature
	var queries []Item
	for v := 0; v < gq.NumNodes(); v += 6 {
		s := NewSignature(gq, graph.NodeID(v), 2)
		qsigs, queries = append(qsigs, s), append(queries, QueryItem(s, dict))
	}
	// oracle[qi] is query qi's full exhaustive ranking over live.
	oracleOf := func(live []Signature) [][]Neighbor {
		out := make([][]Neighbor, len(qsigs))
		for qi, s := range qsigs {
			out[qi] = TopL(s, live, len(live))
		}
		return out
	}
	// Churn drops every fifth node and brings every tenth back.
	var liveAfter []Signature
	var gone, back []graph.NodeID
	for _, s := range sigs {
		switch {
		case s.Node%10 == 0:
			gone, back = append(gone, s.Node), append(back, s.Node)
			liveAfter = append(liveAfter, s)
		case s.Node%5 == 0:
			gone = append(gone, s.Node)
		default:
			liveAfter = append(liveAfter, s)
		}
	}
	oracle := map[string][][]Neighbor{"static": oracleOf(sigs), "churned": oracleOf(liveAfter)}
	byNode := make(map[graph.NodeID]Item, len(items))
	for _, it := range items {
		byNode[it.Node] = it
	}

	// split files the items by ShardOf, with an empty shard in front of
	// slot ways/2, and reports each node's shard.
	split := func(ways int) ([]DynamicIndex, map[graph.NodeID]int) {
		per := make([][]Item, ways+1)
		home := make(map[graph.NodeID]int, len(items))
		for _, it := range items {
			si := ShardOf(it.Node, ways)
			if si >= ways/2 {
				si++
			}
			per[si] = append(per[si], it)
			home[it.Node] = si
		}
		shards := make([]DynamicIndex, len(per))
		for i := range per {
			shards[i] = NewPrunedLinearBackend(per[i])
		}
		return shards, home
	}
	indexes := func(shards []DynamicIndex) []Index {
		ixs := make([]Index, len(shards))
		for i := range shards {
			ixs[i] = shards[i]
		}
		return ixs
	}
	sum := func(shards []DynamicIndex) Counters {
		var c Counters
		for _, ix := range shards {
			c = c.Add(ix.Counters())
			ix.ResetStats()
		}
		return c
	}

	width1 := map[int]int64{}
	for _, ways := range []int{1, 2, 3, 4, 7, 40} {
		for _, width := range []int{1, 2, 4} {
			exec := NewExecutor(width)
			shards, home := split(ways)
			name := fmt.Sprintf("ways=%d width=%d", ways, width)
			// stream runs every query at every l and returns the TED* calls.
			stream := func(stage string) int64 {
				t.Helper()
				all := oracle[stage]
				var calls int64
				for qi := range queries {
					n := len(all[qi])
					for _, l := range []int{1, 5, n + 1} {
						got, err := FanKNN(ctx, exec, indexes(shards), queries[qi], l)
						if err != nil {
							t.Fatalf("%s %s query %d l=%d: %v", name, stage, qi, l, err)
						}
						if want := all[qi][:min(l, n)]; fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s %s query %d l=%d: sweep %v, oracle %v", name, stage, qi, l, got, want)
						}
						c := sum(shards)
						if c.DistanceCalls+c.LowerBoundPrunes != int64(n) {
							t.Errorf("%s %s query %d l=%d: %d evaluated + %d pruned != %d live candidates",
								name, stage, qi, l, c.DistanceCalls, c.LowerBoundPrunes, n)
						}
						calls += c.DistanceCalls
					}
				}
				return calls
			}
			calls := stream("static")
			if width == 1 {
				if again := stream("static"); again != calls {
					t.Errorf("%s: TED* calls differ between two runs of one stream: %d, %d", name, calls, again)
				}
				width1[ways] = calls
				if one := width1[1]; 100*abs(calls-one) > one {
					t.Errorf("%s: %d TED* calls, more than 1%% from the one-shard %d", name, calls, one)
				}
			}

			// Cancelled mid-sweep: nothing is prunable at l = n+1, so a
			// complete sweep would evaluate all n candidates.
			trip := tripCtx{Context: ctx, after: 5, calls: func() int64 {
				var n int64
				for _, ix := range shards {
					n += ix.DistanceCalls()
				}
				return n
			}}
			if got, err := FanKNN(trip, exec, indexes(shards), queries[1], len(items)+1); !errors.Is(err, context.Canceled) || got != nil {
				t.Errorf("%s: cancelled sweep returned %d results, err %v", name, len(got), err)
			}
			if c := sum(shards); c.DistanceCalls >= int64(len(items)) {
				t.Errorf("%s: cancelled sweep made all %d evaluations", name, c.DistanceCalls)
			}

			for _, ix := range shards {
				ix.Remove(gone...)
			}
			for _, v := range back {
				shards[home[v]].Insert(byNode[v])
			}
			stream("churned")
		}
	}

	// BatchKNN's shape: 64 queries per batch on the pool, each sweeping
	// from inside a pool worker, four batches at once on one executor.
	exec := NewExecutor(2)
	four, _ := split(4)
	shards := indexes(four)
	all := oracle["static"]
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([][]Neighbor, 64)
			errs := make([]error, 64)
			if err := exec.Do(ctx, 64, 0, func(i int) {
				res[i], errs[i] = FanKNN(ctx, exec, shards, queries[(b*64+i)%len(queries)], 5)
			}); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for i := range res {
				qi := (b*64 + i) % len(queries)
				if want := all[qi][:5]; errs[i] != nil || fmt.Sprint(res[i]) != fmt.Sprint(want) {
					t.Errorf("batch %d query %d: %v (err %v), oracle %v", b, qi, res[i], errs[i], want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSweepVerifiesOnlyBelowFinalBound pins the KNN sweep's multi-step
// order on the scan path. Over seeded random corpora, undirected and
// directed, and over the PGP analog queried with nodes of a
// 5 %-perturbed copy (the serve-read mix), at l ∈ {1, 5, 20}:
//   - at every width the answer equals the exhaustive oracle;
//   - at width 1 DistanceCalls equals the number of candidates whose
//     degree bound is at most the final l-th distance — exactly those
//     are verified, the fewest any sweep over these bounds can;
//   - at widths 2 and 4 the calls are at least that many, since no
//     candidate with a bound that low can ever be dismissed;
//   - every candidate that passes tier 2 reaches TED*
//     (BlockLabelSurvivors == DistanceCalls), and every dismissal has
//     one tier (LowerBoundPrunes == size + padding + tier 2).
func TestSweepVerifiesOnlyBelowFinalBound(t *testing.T) {
	type corpus struct {
		name    string
		items   []Item
		queries []Item
	}
	var corpora []corpus
	for seed := int64(1); seed <= 3; seed++ {
		directed := seed == 3
		items, dict := profiledItems(randomDirTestGraph(120, 300, 30+seed, directed), 2, directed)
		other := randomDirTestGraph(60, 140, 40+seed, directed)
		queries := []Item{items[7]}
		for v := 0; v < other.NumNodes(); v += 10 {
			queries = append(queries, queryOf(other, graph.NodeID(v), 2, directed, dict))
		}
		corpora = append(corpora, corpus{fmt.Sprintf("random seed=%d directed=%v", seed, directed), items, queries})
	}
	pgp := datasets.MustGenerate(datasets.PGP, datasets.Options{Scale: 0.1, Seed: 42})
	perturbed := anonymize.Perturb(pgp, 0.05, rand.New(rand.NewSource(1))).Graph
	items, dict := profiledItems(pgp, 3, false)
	var queries []Item
	for v := 0; v < perturbed.NumNodes(); v += perturbed.NumNodes() / 8 {
		queries = append(queries, queryOf(perturbed, graph.NodeID(v), 3, false, dict))
	}
	corpora = append(corpora, corpus{"PGP analog", items, queries})

	ctx := context.Background()
	for _, c := range corpora {
		scans := map[int]DynamicIndex{}
		for _, width := range []int{1, 2, 4} {
			scans[width] = NewLinearBackend(c.items, width)
		}
		for qi, q := range c.queries {
			all := exhaustiveKNN(q, c.items, len(c.items))
			for _, l := range []int{1, 5, 20} {
				want := all[:l]
				final := want[l-1].Dist
				below := int64(0)
				for _, it := range c.items {
					if bound, _ := degreeTierPrunes(q, it, paddingBound(q, it), ted.Unbounded); bound <= final {
						below++
					}
				}
				for _, width := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s query %d l=%d width=%d", c.name, qi, l, width)
					ix := scans[width]
					got, err := ix.KNN(ctx, q, l)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: got %v (err %v), exhaustive %v", name, got, err, want)
					}
					cs := ix.Counters()
					ix.ResetStats()
					if width == 1 && cs.DistanceCalls != below {
						t.Errorf("%s: %d TED* calls, want exactly the %d candidates with degree bound <= %d",
							name, cs.DistanceCalls, below, final)
					}
					if cs.DistanceCalls < below {
						t.Errorf("%s: %d TED* calls, fewer than the %d candidates with degree bound <= %d",
							name, cs.DistanceCalls, below, final)
					}
					if cs.BlockLabelSurvivors != cs.DistanceCalls {
						t.Errorf("%s: %d candidates passed tier 2 but %d reached TED*", name, cs.BlockLabelSurvivors, cs.DistanceCalls)
					}
					if cs.LowerBoundPrunes != cs.SizePrunes+cs.PaddingPrunes+cs.LabelPrunes {
						t.Errorf("%s: LowerBoundPrunes %d != size %d + padding %d + tier-2 %d",
							name, cs.LowerBoundPrunes, cs.SizePrunes, cs.PaddingPrunes, cs.LabelPrunes)
					}
				}
			}
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
