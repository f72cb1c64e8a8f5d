package ned

import (
	"context"
	"fmt"
	"testing"

	"ned/internal/graph"
)

// TestShardOf pins the placement function: deterministic, in range,
// degenerate at n=1, and reasonably balanced on dense ID ranges (the
// common case for this library's graphs).
func TestShardOf(t *testing.T) {
	for v := 0; v < 100; v++ {
		if got := ShardOf(graph.NodeID(v), 1); got != 0 {
			t.Fatalf("ShardOf(%d, 1) = %d", v, got)
		}
	}
	const n, nodes = 8, 8000
	counts := make([]int, n)
	for v := 0; v < nodes; v++ {
		si := ShardOf(graph.NodeID(v), n)
		if si < 0 || si >= n {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", v, n, si)
		}
		if si != ShardOf(graph.NodeID(v), n) {
			t.Fatalf("ShardOf(%d, %d) not deterministic", v, n)
		}
		counts[si]++
	}
	want := nodes / n
	for si, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d holds %d of %d nodes (want ~%d): unbalanced hash", si, c, nodes, want)
		}
	}
}

// TestFanOutMatchesSingleIndex: partitioning items across shards and
// querying through FanKNN's one sweep must answer exactly like one
// index over all items — odd shard counts and empty shards included.
func TestFanOutMatchesSingleIndex(t *testing.T) {
	ctx := context.Background()
	items, dict := profiledItems(randomTestGraph(70, 150, 24), 2, false)
	gq := randomTestGraph(40, 80, 25)
	whole := NewPrunedLinearBackend(items)
	exec := NewExecutor(4)

	for _, tc := range []struct {
		n  int
		vp bool // shard 0 is a VP index: FanKNN's per-shard merge arm
	}{{2, false}, {3, false}, {7, false}, {40, false}, {3, true}} {
		n := tc.n
		per := make([][]Item, n)
		for _, it := range items {
			si := ShardOf(it.Node, n)
			per[si] = append(per[si], it)
		}
		shards := make([]Index, n)
		for i := range per {
			shards[i] = NewPrunedLinearBackend(per[i])
		}
		if tc.vp {
			shards[0] = NewVPBackend(per[0])
		}
		for q := 0; q < 6; q++ {
			query := queryOf(gq, graph.NodeID(q*5), 2, false, dict)
			for _, l := range []int{1, 4, 200} {
				want, err := whole.KNN(ctx, query, l)
				if err != nil {
					t.Fatal(err)
				}
				got, err := FanKNN(ctx, exec, shards, query, l)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("shards=%d vp=%v l=%d: FanKNN %v, single %v", n, tc.vp, l, got, want)
				}
			}
		}
	}
}

// TestMergeTopL: the merge respects the canonical (distance, node)
// order and the l cap.
func TestMergeTopL(t *testing.T) {
	per := [][]Neighbor{
		{{Node: 3, Dist: 1}, {Node: 9, Dist: 4}},
		nil,
		{{Node: 1, Dist: 1}, {Node: 2, Dist: 2}},
		{{Node: 7, Dist: 0}},
	}
	got := MergeTopL(per, 3)
	want := []Neighbor{{Node: 7, Dist: 0}, {Node: 1, Dist: 1}, {Node: 3, Dist: 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("MergeTopL = %v, want %v", got, want)
	}
}

// TestCloneIsolation: mutating a cloned backend never changes the
// original's answers — the property the epoch protocol rests on.
func TestCloneIsolation(t *testing.T) {
	ctx := context.Background()
	items, dict := profiledItems(randomTestGraph(50, 110, 26), 2, false)
	query := queryOf(randomTestGraph(30, 60, 27), 4, 2, false, dict)

	build := map[string]func() DynamicIndex{
		"vp":     func() DynamicIndex { return NewVPBackend(items) },
		"bk":     func() DynamicIndex { return NewBKBackend(items) },
		"linear": func() DynamicIndex { return NewLinearBackend(items, 2) },
		"pruned": func() DynamicIndex { return NewPrunedLinearBackend(items) },
	}
	for name, mk := range build {
		orig := mk()
		before, err := orig.KNN(ctx, query, 10)
		if err != nil {
			t.Fatal(err)
		}
		clone := orig.Clone()
		// Mutate the clone hard: remove half the nodes, re-insert two.
		var rm []graph.NodeID
		for v := 0; v < len(items); v += 2 {
			rm = append(rm, graph.NodeID(v))
		}
		clone.Remove(rm...)
		clone.Insert(items[0], items[2])
		after, err := orig.KNN(ctx, query, 10)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(before) != fmt.Sprint(after) {
			t.Errorf("%s: mutating the clone changed the original: %v -> %v", name, before, after)
		}
		if orig.Len() == clone.Len() {
			t.Errorf("%s: clone mutation did not change clone.Len", name)
		}
		// Counters are shared by design: queries against either land in
		// one accumulator.
		origCalls := orig.Counters().DistanceCalls
		if _, err := clone.KNN(ctx, query, 3); err != nil {
			t.Fatal(err)
		}
		if got := orig.Counters().DistanceCalls; got <= origCalls {
			t.Errorf("%s: clone's queries did not land in the shared counter set (%d -> %d)", name, origCalls, got)
		}
	}
}
