package ned

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

func randomTestGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	added := 0
	for added < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		added++
	}
	return b.Build()
}

func allTestBackends(items []Item) map[string]Index {
	return map[string]Index{
		"vp":     NewVPBackend(items),
		"bk":     NewBKBackend(items),
		"linear": NewLinearBackend(items, 2),
		"pruned": NewPrunedLinearBackend(items),
	}
}

// exhaustiveKNN is the trusted oracle: every distance evaluated in full
// with the plain (unbudgeted) ItemDistance, canonically sorted.
func exhaustiveKNN(query Item, items []Item, l int) []Neighbor {
	all := make([]Neighbor, len(items))
	for i, it := range items {
		all[i] = Neighbor{Node: it.Node, Dist: ItemDistance(query, it)}
	}
	sortNeighborsCanonical(all)
	if l > len(all) {
		l = len(all)
	}
	return all[:l]
}

// TestBackendsAgree checks the unified Index contract directly: every
// backend returns results identical — distances AND nodes, not just the
// distance multiset — to the exhaustive unbudgeted scan, on both KNN
// and Range. This is what makes the budget pipeline safe: thresholds
// may only skip work, never change answers.
func TestBackendsAgree(t *testing.T) {
	ctx := context.Background()
	for trial := int64(0); trial < 3; trial++ {
		g := randomTestGraph(70, 150, 40+trial)
		var nodes []graph.NodeID
		for v := 0; v < g.NumNodes(); v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		items := BuildItems(g, nodes, 2, false, 2)
		backends := allTestBackends(items)
		query := NewItem(randomTestGraph(50, 100, 90+trial), 0, 2, false)

		ref := exhaustiveKNN(query, items, 9)
		var refRange []Neighbor
		for _, it := range items {
			if d := ItemDistance(query, it); d <= 3 {
				refRange = append(refRange, Neighbor{Node: it.Node, Dist: d})
			}
		}
		sortNeighborsCanonical(refRange)
		for name, ix := range backends {
			if ix.Len() != len(items) {
				t.Errorf("%s: Len = %d, want %d", name, ix.Len(), len(items))
			}
			got, err := ix.KNN(ctx, query, 9)
			if err != nil {
				t.Fatalf("%s KNN: %v", name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("trial %d %s: KNN %v, exhaustive %v", trial, name, got, ref)
			}
			gotRange, err := ix.Range(ctx, query, 3)
			if err != nil {
				t.Fatalf("%s Range: %v", name, err)
			}
			if fmt.Sprint(gotRange) != fmt.Sprint(refRange) {
				t.Errorf("trial %d %s: Range %v, exhaustive %v", trial, name, gotRange, refRange)
			}
			if ix.DistanceCalls() == 0 {
				t.Errorf("%s: DistanceCalls stayed 0 after queries", name)
			}
			c := ix.Counters()
			if c.DistanceCalls != ix.DistanceCalls() {
				t.Errorf("%s: Counters.DistanceCalls %d != DistanceCalls %d", name, c.DistanceCalls, ix.DistanceCalls())
			}
			ix.ResetStats()
			if ix.DistanceCalls() != 0 || ix.Counters() != (Counters{}) {
				t.Errorf("%s: ResetStats did not zero the counters", name)
			}
		}
	}
}

func TestBackendsPreCanceled(t *testing.T) {
	g := randomTestGraph(30, 60, 8)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	items := BuildItems(g, nodes, 2, false, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	query := items[0]
	for name, ix := range allTestBackends(items) {
		if _, err := ix.KNN(ctx, query, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%s KNN: got %v, want context.Canceled", name, err)
		}
		if _, err := ix.Range(ctx, query, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Range: got %v, want context.Canceled", name, err)
		}
	}
}

// TestParallelForCtxCancelMidFlight proves deterministically that an
// in-flight parallel loop aborts on cancellation: workers block until
// the context is canceled, so the loop can only finish early.
func TestParallelForCtxCancelMidFlight(t *testing.T) {
	const n = 1 << 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var startOnce sync.Once
	started := make(chan struct{})
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- ParallelForCtx(ctx, n, 2, func(i int) {
			startOnce.Do(func() { close(started) })
			<-ctx.Done() // block until the main goroutine cancels
			ran.Add(1)
		})
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("loop ran all %d iterations despite cancellation", got)
	}
}

func TestDirectedItemsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(25, true)
	for i := 0; i < 60; i++ {
		u, v := graph.NodeID(rng.Intn(25)), graph.NodeID(rng.Intn(25))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	a := NewItem(g, 1, 2, true)
	c := NewItem(g, 2, 2, true)
	if got, want := ItemDistance(a, c), DistanceDirected(g, 1, g, 2, 2); got != want {
		t.Errorf("directed ItemDistance = %d, want DistanceDirected = %d", got, want)
	}
	if lb := ItemLowerBound(a, c); lb > ItemDistance(a, c) {
		t.Errorf("lower bound %d exceeds distance %d", lb, ItemDistance(a, c))
	}
}

func TestPrunedBackendMatchesPrunedTopL(t *testing.T) {
	g := randomTestGraph(50, 110, 11)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	sigs := Signatures(g, nodes, 2)
	query := NewSignature(randomTestGraph(30, 60, 12), 0, 2)
	want, _ := PrunedTopL(query, sigs, 5)
	ix := NewPrunedLinearBackend(ItemsOf(sigs))
	got, err := ix.KNN(context.Background(), query.Item(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pruned backend %v != PrunedTopL %v", got, want)
	}
}

// tripCtx reports context.Canceled once calls reports `after` TED*
// evaluations started: a cancellation that lands mid-scan by
// construction, with no timing involved.
type tripCtx struct {
	context.Context
	calls func() int64
	after int64
}

func (c tripCtx) Err() error {
	if c.calls() >= c.after {
		return context.Canceled
	}
	return nil
}

// TestScanWidths pins that the cascade scan's width moves wall time and
// nothing else. At width 1, 2 and 4, over profiled items (block
// kernels) and unprofiled ones (scalar bounds), directed and
// undirected: KNN and Range are node-identical to the exhaustive
// oracle; every candidate of every query lands in exactly one counter
// bucket — evaluated, or dismissed by exactly one tier, tier 2 among
// them on profiled items — also when the bound-sorted tail is cut while
// other sweepers still hold candidates; at width 1 the counters are a
// function of the query stream; and a context cancelled mid-scan yields
// context.Canceled and no partial answer. Width 0, which no backend
// passes (they normalise it) but the scan functions accept, answers the
// same: KNN on the caller, Range on GOMAXPROCS sweepers.
func TestScanWidths(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomDirTestGraph(150, 340, 21, directed)
		var nodes []graph.NodeID
		for v := 0; v < g.NumNodes(); v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		items := BuildItems(g, nodes, 2, directed, 2)
		n := len(items)
		// One corpus member (its twin sits at distance 0, so r = 0 has an
		// answer) and two nodes of another graph.
		other := randomDirTestGraph(60, 130, 77, directed)
		queries := []Item{items[17], NewItem(other, 0, 2, directed), NewItem(other, 5, 2, directed)}
		dict := tree.NewInterner()
		profItems, profQueries := profiledCopy(items, dict), profiledCopy(queries, dict)

		for _, profiled := range []bool{false, true} {
			cands, qs, blockSwept := items, queries, int64(0)
			if profiled {
				cands, qs, blockSwept = profItems, profQueries, int64(n)
			}
			all := exhaustiveKNN(queries[1], items, n)
			within := sort.Search(n, func(i int) bool { return all[i].Dist > 3 })
			blk := compileBlock(cands) // nil for the unprofiled items
			knn0, _, err := scanKNN(context.Background(), qs[1], []sweepPart{{items: cands, blk: blk}}, 9, 0, runSweepers)
			if err != nil || fmt.Sprint(knn0) != fmt.Sprint(all[:9]) {
				t.Errorf("directed=%v profiled=%v width=0 KNN: got %v (err %v), exhaustive %v", directed, profiled, knn0, err, all[:9])
			}
			rng0, err := scanRange(context.Background(), qs[1], []sweepPart{{items: cands, blk: blk}}, 3, 0)
			if err != nil || fmt.Sprint(rng0) != fmt.Sprint(all[:within]) {
				t.Errorf("directed=%v profiled=%v width=0 Range: got %v (err %v), exhaustive %v", directed, profiled, rng0, err, all[:within])
			}
			for _, width := range []int{1, 2, 4} {
				name := fmt.Sprintf("directed=%v profiled=%v width=%d", directed, profiled, width)
				// stream runs the whole query stream on a fresh scan and
				// returns the counters it leaves behind.
				stream := func() Counters {
					ix := NewLinearBackend(cands, width)
					var total Counters
					check := func(what string, got, want []Neighbor, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s: %v", name, what, err)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("%s %s: got %v, exhaustive %v", name, what, got, want)
						}
						c := ix.Counters()
						if c.DistanceCalls+c.LowerBoundPrunes != int64(n) {
							t.Errorf("%s %s: %d evaluated + %d pruned != %d candidates",
								name, what, c.DistanceCalls, c.LowerBoundPrunes, n)
						}
						if c.LowerBoundPrunes != c.SizePrunes+c.PaddingPrunes+c.LabelPrunes {
							t.Errorf("%s %s: LowerBoundPrunes %d != size %d + padding %d + tier-2 %d",
								name, what, c.LowerBoundPrunes, c.SizePrunes, c.PaddingPrunes, c.LabelPrunes)
						}
						if c.BlockCandidates != blockSwept {
							t.Errorf("%s %s: %d candidates took the block path, want %d", name, what, c.BlockCandidates, blockSwept)
						}
						total = total.Add(c)
						ix.ResetStats()
					}
					for qi, q := range qs {
						all := exhaustiveKNN(queries[qi], items, n)
						for _, l := range []int{1, 9, n + 1} {
							got, err := ix.KNN(context.Background(), q, l)
							check(fmt.Sprintf("query %d KNN l=%d", qi, l), got, all[:min(l, n)], err)
						}
						for _, r := range []int{0, 3} {
							within := sort.Search(n, func(i int) bool { return all[i].Dist > r })
							got, err := ix.Range(context.Background(), q, r)
							check(fmt.Sprintf("query %d Range r=%d", qi, r), got, all[:within], err)
						}
					}
					return total
				}
				first := stream()
				if first.LowerBoundPrunes == 0 {
					t.Errorf("%s: the stream never pruned, so no tail cut was exercised", name)
				}
				if profiled && first.LabelPrunes == 0 {
					t.Errorf("%s: tier 2 never pruned, so the bucket invariant did not cover it", name)
				}
				if width == 1 {
					if second := stream(); second != first {
						t.Errorf("%s: counters differ between two runs of one stream:\n%+v\n%+v", name, first, second)
					}
				}

				// l = n+1 and r = 1000 leave nothing to prune, so a complete
				// scan would evaluate all n candidates.
				ix := NewLinearBackend(cands, width)
				ctx := tripCtx{Context: context.Background(), calls: ix.DistanceCalls, after: 5}
				if got, err := ix.KNN(ctx, qs[1], n+1); !errors.Is(err, context.Canceled) || got != nil {
					t.Errorf("%s: cancelled KNN returned %d results, err %v", name, len(got), err)
				}
				if calls := ix.DistanceCalls(); calls < 5 || calls >= int64(n) {
					t.Errorf("%s: cancelled KNN made %d of %d evaluations, want a scan cut short", name, calls, n)
				}
				ix.ResetStats()
				if got, err := ix.Range(ctx, qs[1], 1000); !errors.Is(err, context.Canceled) || got != nil {
					t.Errorf("%s: cancelled Range returned %d results, err %v", name, len(got), err)
				}
				if calls := ix.DistanceCalls(); calls < 5 || calls >= int64(n) {
					t.Errorf("%s: cancelled Range made %d of %d evaluations, want a scan cut short", name, calls, n)
				}
			}
		}
	}
}
