package ned

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ned/internal/graph"
	"ned/internal/ted"
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

// profiledItems is every node of g as an item, profiled against a fresh
// dictionary, which it returns for the queries.
func profiledItems(g *graph.Graph, k int, directed bool) ([]Item, *tree.Interner) {
	nodes := make([]graph.NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	dict := tree.NewInterner()
	return BuildProfiledItems(g, nodes, k, directed, dict, 2), dict
}

// queryOf is node v of g as a query against dict, profiled read-only.
func queryOf(g *graph.Graph, v graph.NodeID, k int, directed bool, dict *tree.Interner) Item {
	q := NewItem(g, v, k, directed)
	ProfileQueryItem(&q, dict)
	return q
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
		items, dict := profiledItems(randomTestGraph(70, 150, 40+trial), 2, false)
		backends := allTestBackends(items)
		query := queryOf(randomTestGraph(50, 100, 90+trial), 0, 2, false, dict)

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
	items, _ := profiledItems(randomTestGraph(30, 60, 8), 2, false)
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
	dict := tree.NewInterner()
	ProfileItem(&a, dict)
	ProfileItem(&c, dict)
	if lb, _ := degreeTierPrunes(a, c, paddingBound(a, c), ted.Unbounded); lb > ItemDistance(a, c) {
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
	items, dict := ProfileSignatures(sigs)
	ix := NewPrunedLinearBackend(items)
	got, err := ix.KNN(context.Background(), QueryItem(query, dict), 5)
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

// TestScanWidths pins that the cascade scan's width — how many
// goroutines verify a Range's survivors; a KNN is one sweep at any
// width — moves wall time and nothing else. At width 1, 2 and 4,
// directed and undirected: KNN and Range are node-identical to the
// exhaustive oracle; every candidate of every query is swept by the
// block kernels and lands in exactly one counter bucket — evaluated, or
// dismissed by exactly one tier, tier 2 among them — also when the
// bound-sorted tail is cut; the counters are a function of the query
// stream, the same from run to run and at every width; and a context
// cancelled mid-scan yields context.Canceled and no partial answer.
// Width 0, which no backend passes (they normalise it) but scanRange
// accepts, answers the same on GOMAXPROCS goroutines.
func TestScanWidths(t *testing.T) {
	for _, directed := range []bool{false, true} {
		items, dict := profiledItems(randomDirTestGraph(150, 340, 21, directed), 2, directed)
		n := len(items)
		// One corpus member (its twin sits at distance 0, so r = 0 has an
		// answer) and two nodes of another graph.
		other := randomDirTestGraph(60, 130, 77, directed)
		queries := []Item{items[17], queryOf(other, 0, 2, directed, dict), queryOf(other, 5, 2, directed, dict)}

		all := exhaustiveKNN(queries[1], items, n)
		within := sort.Search(n, func(i int) bool { return all[i].Dist > 3 })
		part := []sweepPart{newSweepPart(items)}
		rng0, err := scanRange(context.Background(), queries[1], part, 3, 0)
		if err != nil || fmt.Sprint(rng0) != fmt.Sprint(all[:within]) {
			t.Errorf("directed=%v width=0 Range: got %v (err %v), exhaustive %v", directed, rng0, err, all[:within])
		}
		var width1 Counters
		for _, width := range []int{1, 2, 4} {
			name := fmt.Sprintf("directed=%v width=%d", directed, width)
			// stream runs the whole query stream on a fresh scan and
			// returns the counters it leaves behind.
			stream := func() Counters {
				ix := NewLinearBackend(items, width)
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
					if c.BlockCandidates != int64(n) {
						t.Errorf("%s %s: %d candidates took the block path, want %d", name, what, c.BlockCandidates, n)
					}
					total = total.Add(c)
					ix.ResetStats()
				}
				for qi, q := range queries {
					all := exhaustiveKNN(q, items, n)
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
			if first.LabelPrunes == 0 {
				t.Errorf("%s: tier 2 never pruned, so the bucket invariant did not cover it", name)
			}
			if second := stream(); second != first {
				t.Errorf("%s: counters differ between two runs of one stream:\n%+v\n%+v", name, first, second)
			}
			if width == 1 {
				width1 = first
			} else if first != width1 {
				t.Errorf("%s: counters differ from width 1's:\n%+v\n%+v", name, first, width1)
			}

			// l = n+1 and r = 1000 leave nothing to prune, so a complete
			// scan would evaluate all n candidates.
			ix := NewLinearBackend(items, width)
			ctx := tripCtx{Context: context.Background(), calls: ix.DistanceCalls, after: 5}
			if got, err := ix.KNN(ctx, queries[1], n+1); !errors.Is(err, context.Canceled) || got != nil {
				t.Errorf("%s: cancelled KNN returned %d results, err %v", name, len(got), err)
			}
			if calls := ix.DistanceCalls(); calls < 5 || calls >= int64(n) {
				t.Errorf("%s: cancelled KNN made %d of %d evaluations, want a scan cut short", name, calls, n)
			}
			ix.ResetStats()
			if got, err := ix.Range(ctx, queries[1], 1000); !errors.Is(err, context.Canceled) || got != nil {
				t.Errorf("%s: cancelled Range returned %d results, err %v", name, len(got), err)
			}
			if calls := ix.DistanceCalls(); calls < 5 || calls >= int64(n) {
				t.Errorf("%s: cancelled Range made %d of %d evaluations, want a scan cut short", name, calls, n)
			}
		}
	}
}

// TestRangeRadiusExtremes pins Range at the radii the kernels' int32
// threshold has to handle — nothing (r < 0), the corpus twin only
// (r = 0), a typical radius, and radii at and far past the int32
// arithmetic — to the exhaustive oracle, through every path a range
// query can take: the scan at widths 1 and 2, and the VP and BK trees.
// Queries are a corpus member and
// nodes of a second graph, whose shapes the dictionary has never seen
// and so carry read-only, unresolved profiles.
func TestRangeRadiusExtremes(t *testing.T) {
	ctx := context.Background()
	for _, directed := range []bool{false, true} {
		items, dict := profiledItems(randomDirTestGraph(80, 180, 61, directed), 2, directed)
		other := randomDirTestGraph(50, 110, 62, directed)
		queries := []Item{items[9], queryOf(other, 0, 2, directed, dict), queryOf(other, 7, 2, directed, dict)}
		paths := map[string]func(ctx context.Context, q Item, r int) ([]Neighbor, error){
			"scan/1": NewLinearBackend(items, 1).Range,
			"scan/2": NewLinearBackend(items, 2).Range,
			"vp":     NewVPBackend(items).Range,
			"bk":     NewBKBackend(items).Range,
		}
		for qi, q := range queries {
			all := exhaustiveKNN(q, items, len(items))
			for _, r := range []int{-1, 0, 3, 1 << 30, math.MaxInt} {
				var want []Neighbor
				for _, nb := range all {
					if nb.Dist <= r {
						want = append(want, nb)
					}
				}
				for name, rangeOf := range paths {
					got, err := rangeOf(ctx, q, r)
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("directed=%v query %d r=%d %s: %v (err %v), oracle %v", directed, qi, r, name, got, err, want)
					}
				}
			}
		}
	}
}
