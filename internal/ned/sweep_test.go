package ned

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ned/internal/anonymize"
	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
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

// TestSweepWindowEdges drives the KNN and range sweeps' size windows
// (block.go) over the cases at their edges:
//   - queries smaller and larger than every row, so the window opens at
//     one end of the block and widens one way;
//   - a block whose rows all have one size, queried at that size and
//     off it;
//   - single-row blocks: a one-item scan, and FanKNN over one-item
//     shards;
//   - dead rows at the first windows' edges, at the query's own size
//     and at both ends of the block, beside a non-empty delta part;
//   - a directed corpus, whose size key is out+in, with dead rows and a
//     delta, queried by directed items and by an undirected one, whose
//     size key bounds nothing there;
//   - l at 1, 5 and past the corpus.
//
// At widths 1, 2 and 4 every KNN answer, and every Range answer at
// r ∈ {0, 3, 40}, equals the exhaustive oracle over the live items; each
// query counts every live candidate once (BlockCandidates, and
// DistanceCalls + LowerBoundPrunes) and bounds at most every row; at
// width 1 DistanceCalls is exactly the candidates whose degree bound is
// at most the final l-th distance, as with a sweep that bounds every
// row.
func TestSweepWindowEdges(t *testing.T) {
	ctx := context.Background()
	type sweepCase struct {
		name    string
		live    []Item
		rows    int
		queries []Item
		knn     func(width int, q Item, l int) ([]Neighbor, Counters)
		rng     func(width int, q Item, r int) ([]Neighbor, Counters) // nil: no Range
	}
	scanCase := func(name string, b *Scan, queries []Item) sweepCase {
		at := func(width int) *Scan {
			w := *b
			w.workers = width
			w.ResetStats()
			return &w
		}
		return sweepCase{
			name: name, live: b.liveItems(), rows: b.bblk.n + b.deltaLen(), queries: queries,
			knn: func(width int, q Item, l int) ([]Neighbor, Counters) {
				w := at(width)
				got, err := w.KNN(ctx, q, l)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return got, w.Counters()
			},
			rng: func(width int, q Item, r int) ([]Neighbor, Counters) {
				w := at(width)
				got, err := w.Range(ctx, q, r)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return got, w.Counters()
			},
		}
	}
	key := func(it Item) int32 {
		if it.In != nil {
			return it.OutP.Size + it.InP.Size
		}
		return it.OutP.Size
	}
	// churn removes the live items whose size key is qk + d for each d in
	// gaps, and the smallest and largest rows, then re-inserts every third
	// of them into the delta; the scan must not fold.
	churn := func(name string, items []Item, qk int32, gaps []int32) *Scan {
		b := NewPrunedLinearBackend(items).(*Scan)
		byKey := slices.SortedFunc(slices.Values(items), func(a, b Item) int { return cmp.Compare(key(a), key(b)) })
		var gone []graph.NodeID
		for _, it := range items {
			if slices.Contains(gaps, key(it)-qk) {
				gone = append(gone, it.Node)
			}
		}
		gone = append(gone, byKey[0].Node, byKey[len(byKey)-1].Node)
		slices.Sort(gone)
		gone = slices.Compact(gone)
		b.Remove(gone...)
		var back []Item
		for i, v := range gone {
			if i%3 == 0 {
				back = append(back, items[slices.IndexFunc(items, func(it Item) bool { return it.Node == v })])
			}
		}
		b.Insert(back...)
		if len(b.dead) == 0 || b.deltaLen() == 0 || b.bblk.n != len(items) {
			t.Fatalf("%s: churn left %d dead rows and %d delta items over a %d-item base (want both, no fold)",
				name, len(b.dead), b.deltaLen(), b.bblk.n)
		}
		return b
	}

	var cases []sweepCase
	pgp := datasets.MustGenerate(datasets.PGP, datasets.Options{Scale: 0.1, Seed: 42})
	all, dict := profiledItems(pgp, 3, false)
	var items []Item
	maxSize := int32(0)
	for _, it := range all {
		if it.OutP.Size >= 3 {
			items = append(items, it)
			maxSize = max(maxSize, it.OutP.Size)
		}
	}
	// A lone node is smaller than every row; the centre of a star with
	// more leaves than the largest tree has nodes is larger.
	star := graph.NewBuilder(int(maxSize)+51, false)
	for v := 1; v <= int(maxSize)+50; v++ {
		star.AddEdge(0, graph.NodeID(v))
	}
	tiny, huge := queryOf(graph.NewBuilder(1, false).Build(), 0, 3, false, dict), queryOf(star.Build(), 0, 3, false, dict)
	cases = append(cases, scanCase("query outside every row's size", NewPrunedLinearBackend(items).(*Scan), []Item{tiny, huge, items[len(items)/2]}))

	count := map[int32]int{}
	for _, it := range items {
		count[it.OutP.Size]++
	}
	modal := items[0].OutP.Size
	for s, n := range count {
		if n > count[modal] || (n == count[modal] && s < modal) {
			modal = s
		}
	}
	var same []Item
	var off []Item
	for _, it := range items {
		switch {
		case it.OutP.Size == modal:
			same = append(same, it)
		case len(off) < 2 && abs(int64(it.OutP.Size)-int64(modal)) > 20:
			off = append(off, it)
		}
	}
	if len(same) < 5 {
		t.Fatalf("the modal size %d has only %d items", modal, len(same))
	}
	cases = append(cases, scanCase(fmt.Sprintf("every row of size %d", modal), NewPrunedLinearBackend(same).(*Scan), append([]Item{same[0]}, off...)))

	cases = append(cases, scanCase("a one-row block", NewPrunedLinearBackend(items[:1]).(*Scan), []Item{items[0], items[1], tiny, huge}))
	var shards []Index
	for _, it := range items[:12] {
		shards = append(shards, NewPrunedLinearBackend([]Item{it}))
	}
	cases = append(cases, sweepCase{
		name: "FanKNN over one-row shards", live: items[:12], rows: 12, queries: []Item{items[3], items[40], tiny, huge},
		knn: func(width int, q Item, l int) ([]Neighbor, Counters) {
			got, err := FanKNN(ctx, NewExecutor(width), shards, q, l)
			if err != nil {
				t.Fatalf("FanKNN: %v", err)
			}
			var c Counters
			for _, ix := range shards {
				c = c.Add(ix.Counters())
				ix.ResetStats()
			}
			return got, c
		},
	})

	q := items[len(items)/3]
	edges := []int32{0, -15, 15, -16, 16, -31, 31, -32, 32}
	cases = append(cases, scanCase("dead rows at window edges beside a delta", churn("window edges", items, key(q), edges), []Item{q, tiny, huge}))

	dg := randomDirTestGraph(160, 420, 61, true)
	ditems, ddict := profiledItems(dg, 2, true)
	other := randomDirTestGraph(60, 150, 62, true)
	dq := queryOf(other, 4, 2, true, ddict)
	undirected := Item{Node: 5, K: 2, Out: ditems[5].Out, OutP: ditems[5].OutP}
	cases = append(cases, scanCase("directed, size key out+in", churn("directed", ditems, key(dq), edges),
		[]Item{dq, queryOf(other, 9, 2, true, ddict), ditems[7], undirected}))

	// A tie across the first window's edge: b has the query's size and
	// differs by 16 leaf moves, c has 16 more leaves and a smaller node.
	// The top-1 is c, at size gap 16, one past the first window: found
	// only if the sweep counts the rows outside a window of gap w as
	// bounded by w+1, no more.
	twoLevel := graph.NewBuilder(0, false)
	next := graph.NodeID(0)
	broom := func(kids ...int) graph.NodeID {
		root := next
		next++
		for _, k := range kids {
			child := next
			next++
			twoLevel.AddEdge(root, child)
			for range k {
				twoLevel.AddEdge(child, next)
				next++
			}
		}
		return root
	}
	cv, bv, qv := broom(48, 0), broom(16, 16), broom(32, 0)
	tg := twoLevel.Build()
	tdict := tree.NewInterner()
	tie := BuildProfiledItems(tg, []graph.NodeID{cv, bv}, 2, false, tdict, 1)
	tq := queryOf(tg, qv, 2, false, tdict)
	if d0, d1 := ItemDistance(tq, tie[0]), ItemDistance(tq, tie[1]); d0 != 16 || d1 != 16 ||
		tie[0].OutP.Size-tq.OutP.Size != 16 || tie[1].OutP.Size != tq.OutP.Size {
		t.Fatalf("tie corpus: distances %d, %d and sizes %d, %d against the query's %d; want 16, 16 and gaps 16, 0",
			d0, d1, tie[0].OutP.Size, tie[1].OutP.Size, tq.OutP.Size)
	}
	cases = append(cases, scanCase("a tie one past the first window", NewPrunedLinearBackend(tie).(*Scan), []Item{tq}))

	for _, c := range cases {
		n := len(c.live)
		for qi, q := range c.queries {
			all := exhaustiveKNN(q, c.live, n)
			for _, l := range []int{1, 5, n + 3} {
				want := all[:min(l, n)]
				final := want[len(want)-1].Dist
				below := int64(0)
				for _, it := range c.live {
					if bound, _ := degreeTierPrunes(q, it, paddingBound(q, it), ted.Unbounded); bound <= final {
						below++
					}
				}
				for _, width := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s: query %d l=%d width=%d", c.name, qi, l, width)
					got, cs := c.knn(width, q, l)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: got %v, exhaustive %v", name, got, want)
					}
					checkSweepCounts(t, name, cs, n, c.rows)
					if width == 1 && cs.DistanceCalls != below {
						t.Errorf("%s: %d TED* calls, want exactly the %d candidates with degree bound <= %d",
							name, cs.DistanceCalls, below, final)
					}
				}
			}
			for _, r := range []int{0, 3, 40} {
				if c.rng == nil {
					break
				}
				var want []Neighbor
				for _, nb := range all {
					if nb.Dist <= r {
						want = append(want, nb)
					}
				}
				for _, width := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s: query %d Range r=%d width=%d", c.name, qi, r, width)
					got, cs := c.rng(width, q, r)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: got %v, exhaustive %v", name, got, want)
					}
					checkSweepCounts(t, name, cs, n, c.rows)
				}
			}
		}
	}
}

// checkSweepCounts checks one query's counters against its corpus: every
// live candidate is counted once and evaluated or pruned, the prunes
// split into their tiers, and no more than the blocks' rows are bound.
func checkSweepCounts(t *testing.T, name string, c Counters, live, rows int) {
	t.Helper()
	if c.BlockCandidates != int64(live) || c.DistanceCalls+c.LowerBoundPrunes != int64(live) {
		t.Errorf("%s: %d candidates, %d evaluated + %d pruned; live %d", name, c.BlockCandidates, c.DistanceCalls, c.LowerBoundPrunes, live)
	}
	if c.LowerBoundPrunes != c.SizePrunes+c.PaddingPrunes+c.LabelPrunes {
		t.Errorf("%s: LowerBoundPrunes %d != size %d + padding %d + tier-2 %d",
			name, c.LowerBoundPrunes, c.SizePrunes, c.PaddingPrunes, c.LabelPrunes)
	}
	if c.RowsBound > int64(rows) {
		t.Errorf("%s: %d rows bound, the blocks hold %d", name, c.RowsBound, rows)
	}
}
