package ned

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ned/internal/graph"
)

// TestScanDeltaChurn pins the scan's base + delta layout to the
// exhaustive oracle through a seeded Insert / Remove / Clone churn that
// folds the delta into the base several times, with the edge cases
// scripted in: a node removed and re-inserted in one step (its base slot
// dead, its item in the delta), a delta-only node removed, and a removal
// batch spanning base and delta. After every step, for every query:
//   - KNN at widths 1 and 2 and Range at r ∈ {0, 2, 5} equal the
//     exhaustive TopL over the live items;
//   - each query grows BlockCandidates and DistanceCalls +
//     LowerBoundPrunes by exactly the live count (dead slots are never
//     swept, verified or counted), and LowerBoundPrunes stays the sum of
//     its tiers;
//   - a clone taken before the last ten steps still answers its own
//     state, and Items lists the live items in node order;
//   - the base and delta blocks, which writes and folds compile from
//     the blocks before them, equal blocks compiled afresh from their
//     items' profiles, and the dead rows are the rows of the dead slots.
func TestScanDeltaChurn(t *testing.T) {
	ctx := context.Background()
	g := randomTestGraph(140, 420, 31)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	sigs := Signatures(g, nodes, 2)
	items, dict := ProfileSignatures(sigs)
	other := randomTestGraph(50, 110, 32)
	qsigs := []Signature{sigs[17], NewSignature(other, 3, 2)}
	var queries []Item
	for _, s := range qsigs {
		queries = append(queries, QueryItem(s, dict))
	}

	rng := rand.New(rand.NewSource(5))
	live := make(map[graph.NodeID]bool)
	var start []Item
	for _, it := range items {
		if rng.Intn(4) != 0 {
			start = append(start, it)
			live[it.Node] = true
		}
	}
	liveSigs := func() []Signature {
		var out []Signature
		for _, s := range sigs {
			if live[s.Node] {
				out = append(out, s)
			}
		}
		return out
	}

	check := func(name string, b *Scan, want []Signature) {
		t.Helper()
		if got := slices.Collect(b.Items()); len(got) != len(want) || b.Len() != len(want) {
			t.Fatalf("%s: Items lists %d, Len %d, live %d", name, len(got), b.Len(), len(want))
		} else {
			for i, it := range got {
				if it.Node != want[i].Node {
					t.Fatalf("%s: Items[%d] is node %d, want %d", name, i, it.Node, want[i].Node)
				}
			}
		}
		sameRanks(t, name+": the base block against one compiled afresh", b.bblk, compileBlock(b.baseItems()))
		if b.deltaLen() > 0 {
			sameRanks(t, name+": the delta block against one compiled afresh", b.dblk, compileBlock(b.deltaItems()))
		}
		var rows []int32
		for _, s := range b.dead {
			for r, p := range b.bblk.ord {
				if p == s {
					rows = append(rows, int32(r))
				}
			}
		}
		if slices.Sort(rows); !slices.Equal(rows, b.deadRows) {
			t.Fatalf("%s: dead rows %v, the dead slots' rows %v", name, b.deadRows, rows)
		}
		n := int64(len(want))
		counted := func(what string, run func()) {
			t.Helper()
			before := b.Counters()
			run()
			c := b.Counters()
			if got := c.BlockCandidates - before.BlockCandidates; got != n {
				t.Errorf("%s %s: BlockCandidates grew by %d, live %d", name, what, got, n)
			}
			if got := c.DistanceCalls + c.LowerBoundPrunes - before.DistanceCalls - before.LowerBoundPrunes; got != n {
				t.Errorf("%s %s: %d evaluated + pruned, live %d", name, what, got, n)
			}
			if c.LowerBoundPrunes != c.SizePrunes+c.PaddingPrunes+c.LabelPrunes {
				t.Errorf("%s %s: LowerBoundPrunes %d != size %d + padding %d + tier-2 %d",
					name, what, c.LowerBoundPrunes, c.SizePrunes, c.PaddingPrunes, c.LabelPrunes)
			}
		}
		for qi, q := range queries {
			all := TopL(qsigs[qi], want, len(want))
			for _, width := range []int{1, 2} {
				w := *b
				w.workers = width
				what := fmt.Sprintf("query %d width %d KNN", qi, width)
				counted(what, func() {
					got, err := w.KNN(ctx, q, 5)
					if err != nil || !reflect.DeepEqual(got, all[:min(5, len(all))]) {
						t.Errorf("%s %s: %v (err %v), oracle %v", name, what, got, err, all[:min(5, len(all))])
					}
				})
				for _, r := range []int{0, 2, 5} {
					what := fmt.Sprintf("query %d width %d Range r=%d", qi, width, r)
					var within []Neighbor
					for _, nb := range all {
						if nb.Dist <= r {
							within = append(within, nb)
						}
					}
					counted(what, func() {
						got, err := w.Range(ctx, q, r)
						if err != nil || fmt.Sprint(got) != fmt.Sprint(within) {
							t.Errorf("%s %s: %v (err %v), oracle %v", name, what, got, err, within)
						}
					})
				}
			}
		}
	}

	ix := NewPrunedLinearBackend(start).(*Scan)
	frozen, frozenLive := ix.Clone().(*Scan), liveSigs()
	folds, scripted := 0, 0
	for step := 0; step < 70; step++ {
		if step%10 == 0 {
			frozen, frozenLive = ix.Clone().(*Scan), liveSigs()
		}
		ix = ix.Clone().(*Scan)
		base := ix.bblk
		var gone []graph.NodeID
		var batch []Item
		switch {
		case step == 3:
			// Remove and re-insert one live base node in one step.
			s := int32(ix.bblk.n / 2)
			for ix.isDead(s) {
				s++
			}
			v := ix.bblk.Nodes[s]
			if ix.Remove(v) != 1 {
				t.Fatalf("step %d: base node %d was not removed", step, v)
			}
			ix.Insert(items[v])
			scripted++
		case step == 5 && ix.deltaLen() > 0:
			// Remove a node that lives only in the delta.
			gone = append(gone, ix.deltaItems()[0].Node)
			scripted++
		case step == 7 && ix.deltaLen() > 0:
			// One removal batch across base and delta.
			gone = append(gone, ix.deltaItems()[ix.deltaLen()-1].Node)
			for _, v := range ix.bblk.Nodes {
				if live[v] && !slices.Contains(gone, v) {
					gone = append(gone, v)
					break
				}
			}
			scripted++
		default:
			for range 1 + rng.Intn(8) {
				v := graph.NodeID(rng.Intn(len(items)))
				switch {
				case live[v] && !slices.Contains(gone, v):
					gone = append(gone, v)
				case !live[v] && !slices.ContainsFunc(batch, func(it Item) bool { return it.Node == v }):
					batch = append(batch, items[v])
				}
			}
		}
		for _, v := range gone {
			delete(live, v)
		}
		if got := ix.Remove(gone...); got != len(gone) {
			t.Fatalf("step %d: Remove of %d live nodes removed %d", step, len(gone), got)
		}
		ix.Insert(batch...)
		for _, it := range batch {
			live[it.Node] = true
		}
		if ix.bblk != base {
			folds++
		}
		check(fmt.Sprintf("step %d", step), ix, liveSigs())
		check(fmt.Sprintf("step %d, clone from step %d", step, step/10*10), frozen, frozenLive)
	}
	if folds < 3 || scripted != 3 {
		t.Fatalf("churn folded %d times and ran %d of 3 scripted cases; want >= 3 folds and all cases", folds, scripted)
	}
}

// TestInsertWidensDegreeRuns inserts a row whose inner child count, 300,
// does not fit the one byte a count of a scan built over small trees:
// the write relocates the rows at two bytes a count, later small rows
// append in place at that width, and after each step both blocks rank
// what a fresh compile ranks and every KNN equals the exhaustive oracle.
func TestInsertWidensDegreeRuns(t *testing.T) {
	ctx := context.Background()
	g := randomTestGraph(60, 150, 41)
	var nodes []graph.NodeID
	for v := range graph.NodeID(g.NumNodes()) {
		nodes = append(nodes, v)
	}
	sigs := Signatures(g, nodes, 3)
	// Node 0 of the hub graph roots 0 → 1 → 300 leaves.
	hb := graph.NewBuilder(302, false)
	hb.AddEdge(0, 1)
	for v := range graph.NodeID(300) {
		hb.AddEdge(1, v+2)
	}
	hub := NewSignature(hb.Build(), 0, 3)
	hub.Node = graph.NodeID(len(sigs))
	sigs = append(sigs, hub)
	items, dict := ProfileSignatures(sigs)
	qsigs := []Signature{sigs[3], hub}

	ix := NewPrunedLinearBackend(items[:40]).(*Scan)
	live := slices.Clone(sigs[:40])
	check := func(step string, width int) {
		t.Helper()
		if got := ix.rows().Out.Degs.Width; got != width {
			t.Fatalf("%s: degree runs at %d bytes a count, want %d", step, got, width)
		}
		sameRanks(t, step+": base", ix.bblk, compileBlock(ix.baseItems()))
		if ix.deltaLen() > 0 {
			sameRanks(t, step+": delta", ix.dblk, compileBlock(ix.deltaItems()))
		}
		for qi, qs := range qsigs {
			want := TopL(qs, live, 5)
			if got, err := ix.KNN(ctx, QueryItem(qs, dict), 5); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: %v (err %v), oracle %v", step, qi, got, err, want)
			}
		}
	}
	check("built", 1)
	ix.Insert(items[len(items)-1])
	live = append(live, hub)
	check("hub inserted", 2)
	rows := ix.rows().Out
	ix.Insert(items[40:45]...)
	live = append(live, sigs[40:45]...)
	if ix.rows().Out.Degs.U16 == nil || &ix.rows().Out.Degs.U16[0] != &rows.Degs.U16[0] {
		t.Fatal("small rows after the hub did not append in place")
	}
	check("small rows appended", 2)
}
