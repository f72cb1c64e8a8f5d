package ned

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// allBackends is every name the engine still accepts. They all mean the
// cascade scan; only TestCorpusBackendNamesAreTheScan and the name
// round-trip tests care that there are four.
var allBackends = []Backend{BackendVP, BackendBK, BackendLinear, BackendPrunedLinear}

// randomGraph builds a seeded Erdős–Rényi-style graph: n nodes, about m
// distinct edges, no self-loops.
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]NodeID]bool{}
	b := NewGraphBuilder(n, false)
	for len(seen) < m {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// corpusOracle is the reference every Corpus suite compares against:
// plain TED* from the query to the raw signature of every live node
// (TopL — no profiles, no cascade, no index), in the
// canonical (distance, node) order. A scan-only engine has no second
// backend to agree with; it has to agree with this.
type corpusOracle []Signature

// oracleOver extracts the oracle's candidates: the given nodes of g.
func oracleOver(g *Graph, k int, live []NodeID) corpusOracle { return Signatures(g, live, k) }

// allNodes lists every node of g.
func allNodes(g *Graph) []NodeID {
	nodes := make([]NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = NodeID(v)
	}
	return nodes
}

func (o corpusOracle) knn(q Signature, l int) []Neighbor { return TopL(q, o, l) }

// within is the exhaustive range answer: every candidate at distance <= r.
func (o corpusOracle) within(q Signature, r int) []Neighbor {
	return neighborsWithin(TopL(q, o, len(o)), r)
}

// nearest is every candidate at the minimum distance.
func (o corpusOracle) nearest(q Signature) []Neighbor {
	all := TopL(q, o, len(o))
	if len(all) == 0 {
		return nil
	}
	return neighborsWithin(all, all[0].Dist)
}

// neighborsWithin cuts a canonically sorted ranking at distance r.
func neighborsWithin(ranked []Neighbor, r int) []Neighbor {
	n := 0
	for n < len(ranked) && ranked[n].Dist <= r {
		n++
	}
	return ranked[:n]
}

// directedRanking is the oracle for directed corpora, which are queried
// by node: every node of g ranked by the low-level directed NED from v.
func directedRanking(g *Graph, v NodeID, k int) []Neighbor {
	all := make([]Neighbor, g.NumNodes())
	for u := range all {
		all[u] = Neighbor{Node: NodeID(u), Dist: DistanceDirected(g, v, g, NodeID(u), k)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Node < all[j].Node
	})
	return all
}

// assertMatchesOracle drives every signature query path of c —
// KNNSignature, Range, NearestSet, and one BatchKNN over the same
// queries — with seeded random queries from gq and requires each answer
// node-identical to the oracle's.
func assertMatchesOracle(t *testing.T, label string, c *Corpus, o corpusOracle, gq *Graph, k, rounds int, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	const batchL = 4
	var batch []Signature
	for q := 0; q < rounds; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		batch = append(batch, sig)
		l := 1 + rng.Intn(12)
		r := rng.Intn(6)
		got, err := c.KNNSignature(ctx, sig, l)
		if err != nil {
			t.Fatalf("%s: KNNSignature: %v", label, err)
		}
		if want := o.knn(sig, l); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s query %d: KNN(l=%d) %v, oracle %v", label, q, l, got, want)
		}
		got, err = c.Range(ctx, sig, r)
		if err != nil {
			t.Fatalf("%s: Range: %v", label, err)
		}
		if want := o.within(sig, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s query %d: Range(r=%d) %v, oracle %v", label, q, r, got, want)
		}
		got, err = c.NearestSet(ctx, sig)
		if err != nil {
			t.Fatalf("%s: NearestSet: %v", label, err)
		}
		if want := o.nearest(sig); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s query %d: NearestSet %v, oracle %v", label, q, got, want)
		}
	}
	res, err := c.BatchKNN(ctx, batch, batchL)
	if err != nil {
		t.Fatalf("%s: BatchKNN: %v", label, err)
	}
	for q, sig := range batch {
		if want := o.knn(sig, batchL); fmt.Sprint(res[q]) != fmt.Sprint(want) {
			t.Errorf("%s query %d: BatchKNN %v, oracle %v", label, q, res[q], want)
		}
	}
}

// TestCorpusBackendNamesAreTheScan: WithBackend is accepted and ignored.
// A corpus asked for any of the four names reports "pruned", answers
// node-identically to the others (and to the oracle), and — on one
// worker, where the work a query does is deterministic — does exactly
// the same work, counter for counter.
func TestCorpusBackendNamesAreTheScan(t *testing.T) {
	const k = 2
	gQuery := randomGraph(60, 120, 100)
	gCorpus := randomGraph(80, 170, 200)
	o := oracleOver(gCorpus, k, allNodes(gCorpus))
	var ref CorpusStats
	for i, b := range allBackends {
		c, err := NewCorpus(gCorpus, k, WithBackend(b), WithWorkers(1))
		if err != nil {
			t.Fatalf("NewCorpus(%v): %v", b, err)
		}
		assertMatchesOracle(t, b.String(), c, o, gQuery, k, 8, 300)
		s := c.Stats()
		if got := s.Backend.String(); got != "pruned" {
			t.Errorf("WithBackend(%v): Stats().Backend = %q, want \"pruned\"", b, got)
		}
		if i == 0 {
			ref = s
		} else if fmt.Sprintf("%+v", s) != fmt.Sprintf("%+v", ref) {
			t.Errorf("WithBackend(%v) did different work than WithBackend(%v):\n%+v\n%+v", b, allBackends[0], s, ref)
		}
	}
}

// TestCorpusWorkIsWidthFree: WithWorkers sets how many goroutines build
// a corpus and how many of BatchKNN's queries run at once, never how a
// query sweeps. PGP x1 built at 1, 2 and 4 workers answers the serve-read
// mix (interGraphMixAt) with identical answers and identical work: TED*
// calls, rows bound, the prunes of each tier, early exits and Hungarian
// cells.
func TestCorpusWorkIsWidthFree(t *testing.T) {
	ctx := context.Background()
	g, sigs := interGraphMixAt(1, interGraphQueries)
	type work struct {
		DistanceCalls, RowsBound, EarlyExits   int64
		SizePrunes, PaddingPrunes, LabelPrunes int64
		LowerBoundPrunes, HungarianCells       int64
	}
	var refAnswers [][]Neighbor
	var refWork work
	for _, workers := range []int{1, 2, 4} {
		c, err := NewCorpus(g, interGraphK, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		answers := make([][]Neighbor, len(sigs))
		for i, s := range sigs {
			if answers[i], err = c.KNNSignature(ctx, s, interGraphL); err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, err)
			}
		}
		s := c.Stats()
		w := work{s.DistanceCalls, s.RowsBound, s.EarlyExits, s.SizePrunes, s.PaddingPrunes, s.LabelPrunes,
			s.LowerBoundPrunes, s.HungarianCells}
		if workers == 1 {
			refAnswers, refWork = answers, w
			continue
		}
		for i := range answers {
			if fmt.Sprint(answers[i]) != fmt.Sprint(refAnswers[i]) {
				t.Errorf("workers=%d query %d: %v, at one worker %v", workers, i, answers[i], refAnswers[i])
			}
		}
		if w != refWork {
			t.Errorf("workers=%d did different work than one worker over %d queries:\n%+v\n%+v", workers, len(sigs), w, refWork)
		}
	}
}

// TestCorpusBackendEquivalence is the backend-equivalence property with
// one backend left: on seeded random graphs every query path answers
// exactly as the exhaustive scan over raw signatures does.
func TestCorpusBackendEquivalence(t *testing.T) {
	const k = 2
	for trial := int64(0); trial < 5; trial++ {
		gQuery := randomGraph(60, 120, 100+trial)
		gCorpus := randomGraph(80, 170, 200+trial)
		c, err := NewCorpus(gCorpus, k)
		if err != nil {
			t.Fatalf("trial %d: NewCorpus: %v", trial, err)
		}
		assertMatchesOracle(t, fmt.Sprintf("trial %d", trial), c, oracleOver(gCorpus, k, allNodes(gCorpus)), gQuery, k, 8, 300+trial)
	}
}

func TestCorpusMatchesLowLevelTopL(t *testing.T) {
	g1, g2 := testGraphPair(t)
	const k, l = 2, 7
	c, err := NewCorpus(g2, k)
	if err != nil {
		t.Fatal(err)
	}
	sig := NewSignature(g1, 3, k)
	got, err := c.KNNSignature(context.Background(), sig, l)
	if err != nil {
		t.Fatal(err)
	}
	want := TopL(sig, Signatures(g2, allNodes(g2), k), l)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Corpus KNN %v != low-level TopL %v", got, want)
	}
}

// TestCorpusNearestSetIsTheMinimumStratum is the property NearestSet
// rests on now that it is KNN(1) followed by Range at that distance with
// nothing patched up afterwards: the result is every live node at the
// oracle's minimum distance, no more and no fewer — for foreign queries
// and for queries that are corpus nodes (whose zero-distance stratum is
// the node plus its isomorphic twins), statically and after churn. A sparse graph keeps the strata wide.
func TestCorpusNearestSetIsTheMinimumStratum(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(120, 130, 400)
	gq := randomGraph(60, 70, 401)
	var queries []Signature
	for v := 0; v < 30; v++ {
		queries = append(queries, NewSignature(gq, NodeID(v*2), k), NewSignature(g, NodeID(v*4), k))
	}
	live := map[NodeID]bool{}
	for _, v := range allNodes(g) {
		live[v] = true
	}
	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		o := oracleOver(g, k, sortedNodes(live))
		wide := 0
		for qi, sig := range queries {
			want := o.nearest(sig)
			if len(want) > 1 {
				wide++
			}
			got, err := c.NearestSet(ctx, sig)
			if err != nil {
				t.Fatalf("%s: NearestSet: %v", stage, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s query %d: NearestSet %v, minimum stratum %v", stage, qi, got, want)
			}
		}
		if wide < len(queries)/4 {
			t.Errorf("%s: only %d of %d minimum strata hold a tie; the fixture is too easy", stage, wide, len(queries))
		}
	}
	check("static")
	rng := rand.New(rand.NewSource(402))
	for round := 0; round < 3; round++ {
		var rm, add []NodeID
		for _, v := range rng.Perm(g.NumNodes())[:20] {
			if live[NodeID(v)] {
				rm = append(rm, NodeID(v))
				delete(live, NodeID(v))
			} else {
				add = append(add, NodeID(v))
				live[NodeID(v)] = true
			}
		}
		if err := c.Remove(rm...); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(add...); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("churn round %d", round))
	}
}

func TestCorpusTypedErrors(t *testing.T) {
	g := randomGraph(20, 30, 1)
	ctx := context.Background()

	if _, err := NewCorpus(nil, 3); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: got %v, want ErrNilGraph", err)
	}
	if _, err := NewCorpus(g, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: got %v, want ErrBadK", err)
	}
	if _, err := NewCorpus(g, 3, WithBackend(Backend(99))); !errors.Is(err, ErrBadBackend) {
		t.Errorf("backend 99: got %v, want ErrBadBackend", err)
	}
	if _, err := NewCorpus(g, 3, WithNodes([]NodeID{5, 25})); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out-of-range subset: got %v, want ErrNodeOutOfRange", err)
	}

	c, err := NewCorpus(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 99, 3); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("KNN node 99: got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := c.KNN(ctx, 0, 0); !errors.Is(err, ErrBadL) {
		t.Errorf("l=0: got %v, want ErrBadL", err)
	}
	sig := NewSignature(g, 0, 2) // wrong k
	if _, err := c.KNNSignature(ctx, sig, 3); !errors.Is(err, ErrKMismatch) {
		t.Errorf("k mismatch: got %v, want ErrKMismatch", err)
	}
	if _, err := c.KNNSignature(ctx, Signature{}, 3); !errors.Is(err, ErrBadSignature) {
		t.Errorf("empty signature: got %v, want ErrBadSignature", err)
	}
	if _, err := c.Range(ctx, NewSignature(g, 0, 3), -1); !errors.Is(err, ErrBadRadius) {
		t.Errorf("r=-1: got %v, want ErrBadRadius", err)
	}

	if _, err := ParseBackend("zorp"); !errors.Is(err, ErrBadBackend) {
		t.Errorf("ParseBackend(zorp): got %v, want ErrBadBackend", err)
	}
	for _, b := range allBackends {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
}

func TestCorpusPreCanceledContext(t *testing.T) {
	g := randomGraph(40, 80, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sig := NewSignature(g, 0, 3)
	c, err := NewCorpus(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNNSignature(ctx, sig, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("KNN pre-canceled: got %v, want context.Canceled", err)
	}
	if _, err := c.Range(ctx, sig, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Range pre-canceled: got %v, want context.Canceled", err)
	}
	if _, err := c.NearestSet(ctx, sig); !errors.Is(err, context.Canceled) {
		t.Errorf("NearestSet pre-canceled: got %v, want context.Canceled", err)
	}
	if _, err := c.BatchKNN(ctx, []Signature{sig}, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("BatchKNN pre-canceled: got %v, want context.Canceled", err)
	}
}

// TestCorpusCancelInFlightBatch cancels a large batch shortly after it
// starts; the batch must abort with context.Canceled instead of running
// to completion. The workload (hundreds of thousands of TED*
// evaluations on a single worker) takes far longer than the cancel
// delay on any hardware.
func TestCorpusCancelInFlightBatch(t *testing.T) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.5, Seed: 3})
	c, err := NewCorpus(g, 3, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var sigs []Signature
	for v := 0; v < 100; v++ {
		sigs = append(sigs, NewSignature(g, NodeID(v), 3))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.BatchKNN(ctx, sigs, 5)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("in-flight batch: got %v, want context.Canceled", err)
	}
}

// TestCorpusConcurrentQueries hammers one corpus from many goroutines;
// under -race this verifies the atomic stats counters.
func TestCorpusConcurrentQueries(t *testing.T) {
	g := randomGraph(60, 120, 4)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				v := NodeID(rng.Intn(g.NumNodes()))
				if _, err := c.KNN(ctx, v, 3); err != nil {
					t.Errorf("concurrent KNN: %v", err)
					return
				}
				c.Stats()
			}
		}(int64(w))
	}
	wg.Wait()
	s := c.Stats()
	if s.Queries != 80 {
		t.Errorf("Queries = %d, want 80", s.Queries)
	}
	if !s.Built || s.DistanceCalls == 0 {
		t.Errorf("stats not tracking: %+v", s)
	}
}

func TestCorpusWithNodesSubset(t *testing.T) {
	g := randomGraph(50, 100, 5)
	subset := []NodeID{3, 7, 11, 19, 23}
	c, err := NewCorpus(g, 2, WithNodes(subset))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.KNN(context.Background(), 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(subset) {
		t.Fatalf("got %d results, want %d", len(res), len(subset))
	}
	allowed := map[NodeID]bool{}
	for _, v := range subset {
		allowed[v] = true
	}
	for _, n := range res {
		if !allowed[n.Node] {
			t.Errorf("node %d not in the WithNodes subset", n.Node)
		}
	}
	if s := c.Stats(); s.Nodes != len(subset) {
		t.Errorf("Stats.Nodes = %d, want %d", s.Nodes, len(subset))
	}

	// An explicitly empty subset means an empty corpus, not the whole
	// graph.
	empty, err := NewCorpus(g, 2, WithNodes([]NodeID{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err = empty.KNN(context.Background(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty WithNodes corpus returned %d results, want 0", len(res))
	}
}

func TestCorpusDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewGraphBuilder(40, true)
	for i := 0; i < 90; i++ {
		u, v := NodeID(rng.Intn(40)), NodeID(rng.Intn(40))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	ctx := context.Background()

	c, err := NewCorpus(g, 2, WithDirected())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.KNN(ctx, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := directedRanking(g, 0, 2)[:5]; fmt.Sprint(res) != fmt.Sprint(want) {
		t.Errorf("directed KNN %v, exhaustive directed NED %v", res, want)
	}
	// Single-tree signature queries are typed errors in directed mode.
	if _, err := c.KNNSignature(ctx, NewSignature(g, 0, 2), 3); !errors.Is(err, ErrDirectedSignature) {
		t.Errorf("directed signature query: got %v, want ErrDirectedSignature", err)
	}

}

// TestCorpusLazyBuildAndSignature checks Signature and KNNSignature on
// a corpus that has served no query: it reads built before the first
// query (there is no lazy build any more), Signature rejects an
// out-of-range node, and one signature query counts as one.
func TestCorpusLazyBuildAndSignature(t *testing.T) {
	g := randomGraph(30, 60, 7)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); !s.Built || s.Queries != 0 {
		t.Errorf("before any query: %+v, want built with no queries", s)
	}
	sig, err := c.Signature(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Signature(999); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("Signature(999): got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := c.KNNSignature(context.Background(), sig, 3); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); !s.Built || s.Queries != 1 {
		t.Errorf("after one query: %+v", s)
	}
}
