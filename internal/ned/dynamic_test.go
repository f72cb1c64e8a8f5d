package ned

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

// TestScanMutationsKeepNodeOrder pins the scan's mutation invariant:
// after any Insert / Remove churn — batches arriving in any node order —
// the item slice is node-sorted and the block's node order is the
// identity, so no recompile re-sorts the slots; and every KNN still
// equals the exhaustive TopL over the live signatures.
func TestScanMutationsKeepNodeOrder(t *testing.T) {
	g := randomTestGraph(120, 360, 31)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	dict := tree.NewInterner()
	sigs := Signatures(g, nodes, 2)
	items := ItemsOf(sigs)
	ProfileItems(items, dict, 2)
	query := sigs[17].Item()
	ProfileQueryItem(&query, dict)

	rng := rand.New(rand.NewSource(5))
	live := make(map[graph.NodeID]bool)
	var start []Item
	for _, it := range items {
		if rng.Intn(2) == 0 {
			start = append(start, it)
			live[it.Node] = true
		}
	}
	ix := NewPrunedLinearBackend(start)
	for step := 0; step < 60; step++ {
		ix = ix.Clone()
		var batch []Item
		var gone []graph.NodeID
		for range 1 + rng.Intn(6) {
			v := graph.NodeID(rng.Intn(len(items)))
			switch {
			case live[v]:
				gone = append(gone, v)
				delete(live, v)
			case !slices.ContainsFunc(batch, func(it Item) bool { return it.Node == v }):
				batch = append(batch, items[v])
			}
		}
		ix.Remove(gone...)
		ix.Insert(batch...)
		for _, it := range batch {
			live[it.Node] = true
		}

		b := ix.(*scanBackend)
		if !slices.IsSortedFunc(b.items, func(x, y Item) int { return int(x.Node) - int(y.Node) }) {
			t.Fatalf("step %d: items not node-sorted", step)
		}
		if len(b.items) != len(live) {
			t.Fatalf("step %d: %d items, %d live", step, len(b.items), len(live))
		}
		if b.block == nil {
			t.Fatalf("step %d: profiled items compiled no block", step)
		}
		for i, s := range b.block.byNode {
			if int(s) != i {
				t.Fatalf("step %d: byNode is not the identity at slot %d (%d)", step, i, s)
			}
		}
		var liveSigs []Signature
		for _, s := range sigs {
			if live[s.Node] {
				liveSigs = append(liveSigs, s)
			}
		}
		got, err := ix.KNN(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := TopL(sigs[17], liveSigs, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: KNN %v, oracle %v", step, got, want)
		}
	}
}
