package ned

import (
	"reflect"
	"slices"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

// compileBlock is the block over items' rows: node-sorted, every one
// live, so physical row p is slot p of nodeSorted(items).
func compileBlock(items []Item) *profileBlock { return blockOf(RowsOf(items)) }

// baseItems builds every row of the scan's base, dead ones included,
// into items of their own, in node order.
func (b *Scan) baseItems() []Item {
	var out []Item
	for p := range b.bblk.live() {
		out = append(out, b.bblk.Item(int(p)))
	}
	return out
}

// deltaItems builds the delta's live rows into items of their own, in
// node order.
func (b *Scan) deltaItems() []Item {
	var out []Item
	if b.dblk != nil {
		for p := range b.dblk.live() {
			out = append(out, b.dblk.Item(int(p)))
		}
	}
	return out
}

// sameRanks requires two blocks to rank the same rows the same way: at
// every rank the same node, stored tree, size, height, level widths and
// degree runs.
func sameRanks(t *testing.T, name string, got, want *profileBlock) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: %d ranks, want %d", name, got.n, want.n)
	}
	for r := range got.n {
		g, w := got.ord[r], want.ord[r]
		if !reflect.DeepEqual(got.Row(int(g)), want.Row(int(w))) {
			t.Fatalf("%s: rank %d holds %+v, want %+v", name, r, got.Row(int(g)), want.Row(int(w)))
		}
		gl, gd := got.Out.Row(int(g))
		wl, wd := want.Out.Row(int(w))
		if !reflect.DeepEqual(gl, wl) || !slices.Equal(gd.AppendTo(nil), wd.AppendTo(nil)) {
			t.Fatalf("%s: rank %d has columns (%v, %v), want (%v, %v)", name, r, gl, gd, wl, wd)
		}
	}
}

// liveItems builds every live row into an item of its own, in node
// order.
func (b *Scan) liveItems() []Item {
	var out []Item
	for it := range b.Items() {
		full, _ := b.Item(it.Node)
		out = append(out, full)
	}
	return out
}

// BuildProfiledItems extracts and profiles the items of nodes against
// dict, in parallel, in input order.
func BuildProfiledItems(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner, workers int) []Item {
	out := BuildItems(g, nodes, k, directed, workers)
	ProfileItems(out, dict, workers)
	return out
}

// slot is the position of rank r's row among the block's live rows by
// node: for a block compiled over node-sorted items, its item's index.
func (b *profileBlock) slot(r int32) int32 {
	p, i := b.ord[r], int32(0)
	for q := range b.live() {
		if q == p {
			return i
		}
		i++
	}
	panic("ned: a rank whose row is not live")
}
