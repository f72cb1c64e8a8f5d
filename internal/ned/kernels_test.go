package ned

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

// fuzzCorpusTrees loads the TED* fuzz corpus (the seed inputs plus
// crashers the fuzzer has minimized over time) as decoded trees, so the
// kernel-equivalence property runs over adversarial shapes, not just
// random graphs.
func fuzzCorpusTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	var out []*tree.Tree
	root := filepath.Join("..", "ted", "testdata", "fuzz")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			rest, ok := strings.CutPrefix(strings.TrimSpace(line), "string(")
			if !ok {
				continue
			}
			enc, err := strconv.Unquote(strings.TrimSuffix(rest, ")"))
			if err != nil {
				continue
			}
			if tr, err := tree.Decode(enc); err == nil && tr.Size() <= 200 {
				out = append(out, tr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if len(out) < 10 {
		t.Fatalf("fuzz corpus yielded only %d trees", len(out))
	}
	return out
}

// fuzzSeededItems turns the fuzz trees into a profiled item corpus:
// undirected items, or directed ones pairing each tree with the next as
// out/in signatures.
func fuzzSeededItems(t *testing.T, trees []*tree.Tree, dict *tree.Interner, directed bool) []Item {
	t.Helper()
	var items []Item
	for i, tr := range trees {
		it := Item{Node: graph.NodeID(i), K: 2, Out: tr}
		if directed {
			it.In = trees[(i+1)%len(trees)]
		}
		items = append(items, it)
	}
	ProfileItems(items, dict, 2)
	return items
}

// TestBlockKernelsMatchOracle pins the block kernels, the only form of
// tiers 0 and 1, and the block's degree column over the fuzz corpus: for
// every query and candidate block, each row's size and padding bounds
// equal ted.SizeBound and ted.PaddingBound of its item's pair (summed
// over out and in trees when directed) and never exceed the exact
// distance, the survivor bitmap at every threshold admits exactly the
// rows whose padding bound is within it, attributing each dismissal to
// the cheapest tier that decides it, and the rows ascend by (size key,
// item slot) (checkBlockKernels). Every row's degree column gives the
// degree excess and tier 2 its item's profiles give (checkDegreeColumn).
// Rows: undirected and directed corpora; a query deeper than every
// candidate, so the dense padding kernel's per-query constant carries
// the query's extra levels; a base block a fold recompiled after
// removals, whose level matrix is narrower; and, for the degree column,
// 500 nodes of each of the six dataset analogs at k = 2 and 3.
func TestBlockKernelsMatchOracle(t *testing.T) {
	trees := fuzzCorpusTrees(t)
	height := func(it Item) int { return it.OutP.Height() }
	for _, directed := range []bool{false, true} {
		items := fuzzSeededItems(t, trees, tree.NewInterner(), directed)
		var queries []Item
		for qi := 0; qi < len(items); qi += 7 {
			queries = append(queries, items[qi])
		}
		checkBlockKernels(t, fmt.Sprintf("directed=%v", directed), items, compileBlock(items), queries)
	}

	items := fuzzSeededItems(t, trees, tree.NewInterner(), false)
	deepest := items[0]
	for _, it := range items {
		if height(it) > height(deepest) {
			deepest = it
		}
	}
	var shallow []Item
	for _, it := range items {
		if height(it) < height(deepest) {
			shallow = append(shallow, it)
		}
	}
	blk := compileBlock(shallow)
	if blk.Out.Width >= len(deepest.OutP.Levels) {
		t.Fatalf("shallow block %v does not sit under a %d-level query", blk, len(deepest.OutP.Levels))
	}
	checkBlockKernels(t, "query deeper than the block", shallow, blk, []Item{deepest})

	ix := NewPrunedLinearBackend(items).(*Scan)
	wide := ix.bblk.Out.Width
	var tall []graph.NodeID
	for _, it := range items {
		if height(it) >= height(deepest)-1 {
			tall = append(tall, it.Node)
		}
	}
	if ix.Remove(tall...) == 0 {
		t.Fatalf("removing the %d tallest items removed nothing", len(tall))
	}
	ix.fold()
	ix.relocate(nil)
	if ix.bblk.Out.Width >= wide {
		t.Fatalf("folding and relocating out the %d tallest items left the width at %d (was %d)", len(tall), ix.bblk.Out.Width, wide)
	}
	base := ix.baseItems()
	checkBlockKernels(t, "recompiled by a fold", base, ix.bblk, []Item{deepest, base[0], base[len(base)/2]})

	for _, name := range datasets.All {
		g := datasets.MustGenerate(name, datasets.Options{Seed: 5})
		for _, k := range []int{2, 3} {
			perm := rand.New(rand.NewSource(int64(k))).Perm(g.NumNodes())
			nodes := make([]graph.NodeID, 0, 500)
			for _, v := range perm[:min(500, len(perm))] {
				nodes = append(nodes, graph.NodeID(v))
			}
			dict := tree.NewInterner()
			items := BuildProfiledItems(g, nodes, k, false, dict, 2)
			items = nodeSorted(items)
			queries := []Item{items[0], queryOf(g, graph.NodeID(perm[len(perm)-1]), k, false, dict)}
			checkDegreeColumn(t, fmt.Sprintf("%s k=%d", name, k), items, compileBlock(items), queries)
		}
	}
}

// checkDegreeColumn compares every row's degree column in blk with its
// item's profiles: the row's level widths and degree runs are the
// profile's Levels and InnerDegs, ted.DegreeExcessRow over them at the
// column's width equals ted.DegreeExcess over the profiles for each
// query, and the row form of tier 2 equals the item form at every
// threshold.
func checkDegreeColumn(t *testing.T, name string, items []Item, blk *profileBlock, queries []Item) {
	t.Helper()
	for r := range blk.n {
		it := items[blk.slot(int32(r))]
		levels, degs := blk.Out.Row(int(blk.ord[r]))
		if !slices.Equal(levels, it.OutP.Levels) || !slices.Equal(degs.AppendTo(nil), it.OutP.InnerDegs()) {
			t.Fatalf("%s row %d (node %d): column (%v, %v), profile (%v, %v)",
				name, r, it.Node, levels, degs, it.OutP.Levels, it.OutP.InnerDegs())
		}
		for qi, q := range queries {
			want := ted.DegreeExcess(q.OutP, it.OutP, ted.Unbounded)
			if got := ted.DegreeExcessRow(q.OutP.Levels, q.OutP.InnerDegs(), blk.Out, int(blk.ord[r]), ted.Unbounded); got != want {
				t.Fatalf("%s row %d query %d: column degree excess %d, profiles %d", name, r, qi, got, want)
			}
			pad := paddingBound(q, it)
			for _, thr := range []int{0, pad, pad + 1, pad + 4, ted.Unbounded} {
				gb, gp := blk.degreeTierPrunes(q, int32(r), pad, thr)
				wb, wp := degreeTierPrunes(q, it, pad, thr)
				if gb != wb || gp != wp {
					t.Fatalf("%s row %d query %d t=%d: row tier 2 (%d,%v), item tier 2 (%d,%v)", name, r, qi, thr, gb, gp, wb, wp)
				}
			}
		}
	}
}

// checkBlockKernels compares blk's bounds and survivor bitmaps for each
// query against the scalar ted bounds and the exact distance over items,
// checks its row order, and runs checkDegreeColumn.
func checkBlockKernels(t *testing.T, name string, items []Item, blk *profileBlock, queries []Item) {
	t.Helper()
	key := func(it Item) int32 {
		if it.In != nil {
			return it.OutP.Size + it.InP.Size
		}
		return it.OutP.Size
	}
	if sorted := slices.Sorted(slices.Values(blk.ord)); len(sorted) != len(items) || sorted[0] != 0 || int(sorted[len(sorted)-1]) != len(items)-1 {
		t.Fatalf("%s: the rows' item slots are not a permutation of %d items", name, len(items))
	}
	for r := 1; r < blk.n; r++ {
		a, b := items[blk.slot(int32(r-1))], items[blk.slot(int32(r))]
		if c := cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(blk.slot(int32(r-1)), blk.slot(int32(r)))); c >= 0 {
			t.Fatalf("%s: row %d (key %d, slot %d) does not follow row %d (key %d, slot %d)",
				name, r, key(b), blk.slot(int32(r)), r-1, key(a), blk.slot(int32(r-1)))
		}
	}
	checkDegreeColumn(t, name, items, blk, queries)
	sizeB := make([]int32, blk.n)
	padB := make([]int32, blk.n)
	words := make([]uint64, (blk.n+63)/64)
	for qi, q := range queries {
		blk.bounds(q, 0, int32(blk.n), sizeB, padB)
		for j := range blk.n {
			it := items[blk.slot(int32(j))]
			size, pad := ted.SizeBound(q.OutP, it.OutP), ted.PaddingBound(q.OutP, it.OutP)
			if q.In != nil && it.In != nil {
				size += ted.SizeBound(q.InP, it.InP)
				pad += ted.PaddingBound(q.InP, it.InP)
			}
			if int(sizeB[j]) != size || int(padB[j]) != pad {
				t.Fatalf("%s query %d row %d: block bounds (%d,%d), ted (%d,%d)",
					name, qi, j, sizeB[j], padB[j], size, pad)
			}
			if d := ItemDistance(q, it); pad > d {
				t.Fatalf("%s query %d row %d: padding bound %d exceeds the distance %d", name, qi, j, pad, d)
			}
		}
		for _, thr := range []int{0, 1, 2, 3, 5, 9, 40} {
			szPruned, padPruned := tierFilterBlock(sizeB, padB, int32(thr), words)
			wantSz, wantPad := 0, 0
			for j := range items {
				bit := words[j>>6]>>(uint(j)&63)&1 == 1
				pass := int(padB[j]) <= thr
				if bit != pass {
					t.Fatalf("%s query %d row %d t=%d: bitmap %v, padding admits %v", name, qi, j, thr, bit, pass)
				}
				if !pass {
					if int(sizeB[j]) > thr {
						wantSz++
					} else {
						wantPad++
					}
				}
			}
			if szPruned != wantSz || padPruned != wantPad {
				t.Fatalf("%s query %d t=%d: tier attribution (%d,%d), want (%d,%d)",
					name, qi, thr, szPruned, padPruned, wantSz, wantPad)
			}
		}
	}
}

// TestWindowOrderMatchesComparisonSort pins a KNN sweep's windows and
// evaluation order over one block and over three blocks of the same
// items — the fuzz corpus, and a random graph's nodes at k = 2 — with
// nothing dead and with every fifth row of each part dead.
// From an empty window, the sweep widens to size gaps 0, 2, 15, 40 and
// past every row, claiming a third of the unclaimed order before each
// widening. After each one:
//   - each part's window is exactly the rows whose size key is within
//     the gap of the query's, and each of them carries the kernel bounds
//     ted gives its item;
//   - the claimed prefix has not moved;
//   - the unclaimed order is the live window rows not claimed, each
//     once, by ascending padding bound, with ties in the order a
//     comparison sort by (widening that added it, part, row) gives;
//   - widen reports full exactly when every window holds its whole
//     part, as each does at the widest gap.
//
// orderBy itself is pinned to a stable comparison sort, its
// degenerate-range fallback included.
func TestWindowOrderMatchesComparisonSort(t *testing.T) {
	fuzzed := fuzzSeededItems(t, fuzzCorpusTrees(t), tree.NewInterner(), false)
	// Scramble node IDs and re-sort, so node order is not the fuzz
	// corpus's own order.
	for i := range fuzzed {
		fuzzed[i].Node = graph.NodeID((i*2654435761 + 17) % (4 * len(fuzzed)))
	}
	slices.SortStableFunc(fuzzed, compareNodes)
	random, _ := profiledItems(randomTestGraph(200, 500, 21), 2, false)
	for _, items := range [][]Item{fuzzed, random} {
		checkWindowOrder(t, items, items[len(items)/2])
	}

	rng := rand.New(rand.NewSource(3))
	for _, spread := range []int32{10, 1 << 24} {
		val := make([]int32, 300)
		for i := range val {
			val[i] = rng.Int31n(spread)
		}
		ids := make([]int32, 0, 200)
		for _, id := range rng.Perm(len(val))[:200] {
			ids = append(ids, int32(id))
		}
		want := slices.Clone(ids)
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(val[a], val[b]) })
		if got, _ := orderBy(ids, val, nil, nil); !slices.Equal(got, want) {
			t.Fatalf("spread %d: orderBy %v, comparison %v", spread, got, want)
		}
	}
}

// checkWindowOrder runs TestWindowOrderMatchesComparisonSort's widenings
// of a query q over items split one and three ways.
func checkWindowOrder(t *testing.T, items []Item, q Item) {
	t.Helper()
	n := len(items)
	for _, cuts := range [][]int{{n}, {n / 3, n / 2, n}} {
		for _, every := range []int{0, 5} {
			name := fmt.Sprintf("%d items, parts %v, every %d-th row dead", n, cuts, every)
			var parts []sweepPart
			lo := 0
			for _, hi := range cuts {
				pt := sweepPart{blk: compileBlock(items[lo:hi])}
				for r := 1; every > 0 && r < pt.blk.n; r += every {
					pt.dead = append(pt.dead, int32(r))
				}
				parts, lo = append(parts, pt), hi
			}
			sc := new(sweepScratch)
			live := 0
			for _, pt := range parts {
				live += pt.blk.n - len(pt.dead)
			}
			if got := sc.open(q, parts); got != live {
				t.Fatalf("%s: open counted %d live candidates, want %d", name, got, live)
			}
			added := map[int32]int{} // global row -> the widening that added it
			next := 0
			for step, w := range []int{0, 2, 15, 40, 1 << 20} {
				whole := true
				next += (len(sc.order) - next) / 3
				claimed := slices.Clone(sc.order[:next])
				full := sc.widen(q, parts, w, next)
				if !slices.Equal(sc.order[:next], claimed) {
					t.Fatalf("%s w=%d: the claimed prefix moved", name, w)
				}
				var want []int32
				for p, pt := range parts {
					base := partBase(sc.ends, p)
					win := sc.wins[p]
					for r := range int32(pt.blk.n) {
						it := pt.blk.Item(int(pt.blk.ord[r]))
						inside := abs(int64(it.OutP.Size)-int64(q.OutP.Size)) <= int64(w)
						if inside != (win.lo <= r && r < win.hi) {
							t.Fatalf("%s w=%d part %d row %d: size gap %d, window [%d,%d)",
								name, w, p, r, abs(int64(it.OutP.Size)-int64(q.OutP.Size)), win.lo, win.hi)
						}
						if !inside {
							whole = false
							continue
						}
						g := base + r
						if int(sc.sizeB[g]) != ted.SizeBound(q.OutP, it.OutP) || int(sc.padB[g]) != ted.PaddingBound(q.OutP, it.OutP) {
							t.Fatalf("%s w=%d part %d row %d: bounds (%d,%d), ted (%d,%d)", name, w, p, r,
								sc.sizeB[g], sc.padB[g], ted.SizeBound(q.OutP, it.OutP), ted.PaddingBound(q.OutP, it.OutP))
						}
						if _, ok := added[g]; !ok {
							added[g] = step
						}
						if !slices.Contains(pt.dead, r) && !slices.Contains(claimed, g) {
							want = append(want, g)
						}
					}
				}
				slices.SortStableFunc(want, func(a, b int32) int {
					return cmp.Or(cmp.Compare(sc.padB[a], sc.padB[b]), cmp.Compare(added[a], added[b]), cmp.Compare(a, b))
				})
				if got := sc.order[next:]; !slices.Equal(got, want) {
					t.Fatalf("%s w=%d: unclaimed order %v, comparison %v", name, w, got, want)
				}
				if full != whole || (w == 1<<20 && !full) {
					t.Fatalf("%s w=%d: widen reported full=%v, every row inside: %v", name, w, full, whole)
				}
			}
		}
	}
}

// TestUnprofiledItemPanics pins that profiles are a precondition, not a
// fallback: a block refuses, loudly, an unprofiled item or a mix of
// directed and undirected ones, and its bounds an unprofiled query. An
// empty batch is an empty block, which bounds nothing.
func TestUnprofiledItemPanics(t *testing.T) {
	items := fuzzSeededItems(t, fuzzCorpusTrees(t), tree.NewInterner(), false)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	unprofiled := slices.Clone(items)
	unprofiled[len(unprofiled)/2].OutP = nil
	mustPanic("compiling an unprofiled item", func() { compileBlock(unprofiled) })
	mixed := slices.Clone(items)
	mixed[1].In, mixed[1].InP = mixed[2].Out, mixed[2].OutP
	mustPanic("compiling mixed directions", func() { compileBlock(mixed) })
	blk := compileBlock(items)
	bare := Item{Node: 1, K: 2, Out: items[0].Out}
	mustPanic("bounding an unprofiled query", func() { blk.bounds(bare, 0, int32(blk.n), make([]int32, blk.n), make([]int32, blk.n)) })
	if empty := compileBlock(nil); empty.n != 0 {
		t.Errorf("empty batch compiled a block of %d rows", empty.n)
	} else {
		empty.bounds(items[0], 0, 0, nil, nil)
	}
}
