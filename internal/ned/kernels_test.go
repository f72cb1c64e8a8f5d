package ned

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

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
// tiers 0 and 1, over the fuzz corpus: for every query and candidate
// block, each slot's size and padding bounds equal ted.SizeBound and
// ted.PaddingBound of the pair (summed over out and in trees when
// directed) and never exceed the exact distance, and the survivor
// bitmap at every threshold admits exactly the slots whose padding
// bound is within it, attributing each dismissal to the cheapest tier
// that decides it. Rows: undirected and directed corpora; a query
// deeper than every candidate, so the dense padding kernel's per-query
// constant carries the query's extra levels; and a base block a fold
// recompiled after removals, whose level matrix is narrower.
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
	if blk.out.Width >= len(deepest.OutP.Levels) {
		t.Fatalf("shallow block %v does not sit under a %d-level query", blk, len(deepest.OutP.Levels))
	}
	checkBlockKernels(t, "query deeper than the block", shallow, blk, []Item{deepest})

	ix := NewPrunedLinearBackend(items).(*scanBackend)
	wide := ix.bblk.out.Width
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
	if ix.bblk.out.Width >= wide {
		t.Fatalf("folding out the %d tallest items left the width at %d (was %d)", len(tall), ix.bblk.out.Width, wide)
	}
	checkBlockKernels(t, "recompiled by a fold", ix.base, ix.bblk, []Item{deepest, ix.base[0], ix.base[len(ix.base)/2]})
}

// checkBlockKernels compares blk's bounds and survivor bitmaps for each
// query against the scalar ted bounds and the exact distance over items.
func checkBlockKernels(t *testing.T, name string, items []Item, blk *profileBlock, queries []Item) {
	t.Helper()
	sizeB := make([]int32, blk.n)
	padB := make([]int32, blk.n)
	words := make([]uint64, (blk.n+63)/64)
	for qi, q := range queries {
		blk.bounds(q, sizeB, padB)
		for j, it := range items {
			size, pad := ted.SizeBound(q.OutP, it.OutP), ted.PaddingBound(q.OutP, it.OutP)
			if q.In != nil && it.In != nil {
				size += ted.SizeBound(q.InP, it.InP)
				pad += ted.PaddingBound(q.InP, it.InP)
			}
			if int(sizeB[j]) != size || int(padB[j]) != pad {
				t.Fatalf("%s query %d slot %d: block bounds (%d,%d), ted (%d,%d)",
					name, qi, j, sizeB[j], padB[j], size, pad)
			}
			if d := ItemDistance(q, it); pad > d {
				t.Fatalf("%s query %d slot %d: padding bound %d exceeds the distance %d", name, qi, j, pad, d)
			}
		}
		for _, thr := range []int{0, 1, 2, 3, 5, 9, 40} {
			szPruned, padPruned := tierFilterBlock(sizeB, padB, int32(thr), words)
			wantSz, wantPad := 0, 0
			for j := range items {
				bit := words[j>>6]>>(uint(j)&63)&1 == 1
				pass := int(padB[j]) <= thr
				if bit != pass {
					t.Fatalf("%s query %d slot %d t=%d: bitmap %v, padding admits %v", name, qi, j, thr, bit, pass)
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

// TestBlockOrderMatchesComparisonSort pins the counting-sorted
// evaluation order to a comparison sort by (padding bound, part, node)
// of the live slots, over one block and over three blocks of the same
// items, with nothing dead and with every fifth slot of each part dead:
// ties go part after part and by node within a part, so one block's
// order is the canonical (padding bound, node) one, and a dead slot
// never appears. The comparison-sort fallback for degenerate bound
// ranges is covered by a synthetic wide bound.
func TestBlockOrderMatchesComparisonSort(t *testing.T) {
	trees := fuzzCorpusTrees(t)
	dict := tree.NewInterner()
	items := fuzzSeededItems(t, trees, dict, false)
	// Scramble node IDs and re-sort, so the tie-break by node is not the
	// fuzz corpus's own order.
	for i := range items {
		items[i].Node = graph.NodeID((i*2654435761 + 17) % (4 * len(items)))
	}
	slices.SortStableFunc(items, compareNodes)
	q := items[3]
	n := len(items)
	for _, cuts := range [][]int{{n}, {n / 3, n / 2, n}} {
		for _, every := range []int{0, 5} {
			name := fmt.Sprintf("parts %v, every %d-th slot dead", cuts, every)
			// Part p is items[cuts[p-1]:cuts[p]]; global slot g is its index in items.
			dead := make([][]int32, len(cuts))
			ends := make([]int32, len(cuts))
			part := make([]int, n)
			isDead := make([]bool, n)
			padB := make([]int32, n)
			for p, hi := range cuts {
				lo := int(partBase(ends, p))
				ends[p] = int32(hi)
				blk := compileBlock(items[lo:hi])
				blk.bounds(q, make([]int32, blk.n), padB[lo:hi])
				for g := lo; g < hi; g++ {
					part[g] = p
					if every > 0 && (g-lo)%every == 1 {
						dead[p] = append(dead[p], int32(g-lo))
						isDead[g] = true
					}
				}
			}
			reference := func(pad []int32) []int32 {
				var want []int32
				for g := range n {
					if !isDead[g] {
						want = append(want, int32(g))
					}
				}
				slices.SortFunc(want, func(a, b int32) int {
					return cmp.Or(cmp.Compare(pad[a], pad[b]), cmp.Compare(part[a], part[b]), cmp.Compare(items[a].Node, items[b].Node))
				})
				return want
			}
			got, _ := blockOrder(padB, dead, ends, nil, nil)
			if want := reference(padB); !slices.Equal(got, want) {
				t.Fatalf("%s: counting sort %v, comparison %v", name, got, want)
			}
			// Degenerate bound range: force the fallback and pin it to the
			// same reference.
			padB[0] = int32(4*n + 100000)
			got, _ = blockOrder(padB, dead, ends, nil, nil)
			if want := reference(padB); !slices.Equal(got, want) {
				t.Fatalf("%s: fallback order %v, comparison %v", name, got, want)
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
	mustPanic("bounding an unprofiled query", func() { blk.bounds(bare, make([]int32, blk.n), make([]int32, blk.n)) })
	if empty := compileBlock(nil); empty.n != 0 {
		t.Errorf("empty batch compiled a block of %d slots", empty.n)
	} else {
		empty.bounds(items[0], nil, nil)
	}
}
