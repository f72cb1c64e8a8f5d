package ned

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ned/internal/graph"
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

// TestBlockKernelsMatchScalarCascade is the block-vs-scalar contract of
// cascade.go pinned bit for bit over the fuzz corpus: for every query
// and candidate block, the block kernels' per-slot bound values, the
// counting-sorted evaluation order and the size+padding survivor bitmap
// at every threshold must all equal what the scalar per-candidate
// cascade computes (tier 2 has no block form to compare). Undirected
// and directed (summed out/in) corpora are both covered.
func TestBlockKernelsMatchScalarCascade(t *testing.T) {
	trees := fuzzCorpusTrees(t)
	for _, directed := range []bool{false, true} {
		dict := tree.NewInterner()
		items := fuzzSeededItems(t, trees, dict, directed)
		blk := compileBlock(items)
		if blk == nil {
			t.Fatalf("directed=%v: fully profiled corpus failed to compile a block", directed)
		}
		sizeB := make([]int32, blk.n)
		padB := make([]int32, blk.n)
		words := make([]uint64, (blk.n+63)/64)
		for qi := 0; qi < len(items); qi += 7 {
			q := items[qi]
			if !blk.bounds(q, sizeB, padB) {
				t.Fatalf("directed=%v query %d: block bounds refused a profiled query", directed, qi)
			}
			for j, it := range items {
				want := itemCascadeBounds(q, it)
				if sizeB[j] != want.size || padB[j] != want.pad {
					t.Fatalf("directed=%v query %d slot %d: block bounds (%d,%d), scalar (%d,%d)",
						directed, qi, j, sizeB[j], padB[j], want.size, want.pad)
				}
			}
			for _, thr := range []int{0, 1, 2, 3, 5, 9, 40} {
				szPruned, padPruned := tierFilterBlock(sizeB, padB, int32(thr), words)
				wantSz, wantPad := 0, 0
				for j := range items {
					bit := words[j>>6]>>(uint(j)&63)&1 == 1
					pass := int(padB[j]) <= thr
					if bit != pass {
						t.Fatalf("directed=%v query %d slot %d t=%d: bitmap %v, scalar admit %v",
							directed, qi, j, thr, bit, pass)
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
					t.Fatalf("directed=%v query %d t=%d: tier attribution (%d,%d), scalar (%d,%d)",
						directed, qi, thr, szPruned, padPruned, wantSz, wantPad)
				}
			}
		}
	}
}

// TestBlockOrderMatchesComparisonSort pins the counting-sorted
// evaluation order to cascadeOrder's comparison sort: identical slot
// sequences, so block and scalar scans evaluate candidates in the same
// canonical (padding bound, node) order and the threshold evolves
// identically. The insertion-sort fallback for degenerate bound ranges
// is covered by a synthetic wide-bound block.
func TestBlockOrderMatchesComparisonSort(t *testing.T) {
	trees := fuzzCorpusTrees(t)
	dict := tree.NewInterner()
	items := fuzzSeededItems(t, trees, dict, false)
	// Scramble node IDs so node order differs from slot order and the
	// tie-break is actually exercised.
	for i := range items {
		items[i].Node = graph.NodeID((i*2654435761 + 17) % (4 * len(items)))
	}
	blk := compileBlock(items)
	if blk == nil {
		t.Fatal("profiled corpus failed to compile a block")
	}
	q := items[3]
	sizeB := make([]int32, blk.n)
	padB := make([]int32, blk.n)
	if !blk.bounds(q, sizeB, padB) {
		t.Fatal("block bounds refused a profiled query")
	}
	got := blockOrder(padB, blk.byNode)
	want := make([]int32, len(items))
	for i := range want {
		want[i] = int32(i)
	}
	// The reference order, straight from cascadeOrder's comparator.
	for i := 1; i < len(want); i++ {
		for k := i; k > 0; k-- {
			a, b := want[k-1], want[k]
			if padB[a] < padB[b] || (padB[a] == padB[b] && items[a].Node < items[b].Node) {
				break
			}
			want[k-1], want[k] = b, a
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: counting sort %v, comparison %v", i, got[:i+1], want[:i+1])
		}
	}

	// Degenerate bound range: force the insertion-sort fallback and pin
	// it to the same reference.
	widePad := make([]int32, len(padB))
	copy(widePad, padB)
	widePad[0] = int32(4*len(padB) + 100000)
	gotWide := blockOrder(widePad, blk.byNode)
	wantWide := make([]int32, len(items))
	for i := range wantWide {
		wantWide[i] = int32(i)
	}
	for i := 1; i < len(wantWide); i++ {
		for k := i; k > 0; k-- {
			a, b := wantWide[k-1], wantWide[k]
			if widePad[a] < widePad[b] || (widePad[a] == widePad[b] && items[a].Node < items[b].Node) {
				break
			}
			wantWide[k-1], wantWide[k] = b, a
		}
	}
	for i := range wantWide {
		if gotWide[i] != wantWide[i] {
			t.Fatalf("fallback order diverges at %d", i)
		}
	}
}

// TestBlockCompileFallbacks pins the refusal paths: a block never
// compiles over unprofiled or mixed-direction items, and bounds refuses
// an unprofiled query — each is the scans' signal to take the scalar
// cascade instead of serving wrong (or panicking) fast-path answers.
func TestBlockCompileFallbacks(t *testing.T) {
	trees := fuzzCorpusTrees(t)
	dict := tree.NewInterner()
	items := fuzzSeededItems(t, trees, dict, false)

	unprofiled := append([]Item(nil), items...)
	unprofiled[len(unprofiled)/2].OutP = nil
	if compileBlock(unprofiled) != nil {
		t.Error("compileBlock accepted a batch with an unprofiled item")
	}

	mixed := append([]Item(nil), items...)
	mixed[1].In = mixed[2].Out
	mixed[1].InP = mixed[2].OutP
	if compileBlock(mixed) != nil {
		t.Error("compileBlock accepted a mix of directed and undirected items")
	}

	if compileBlock(nil) != nil {
		t.Error("compileBlock accepted an empty batch")
	}

	blk := compileBlock(items)
	if blk == nil {
		t.Fatal("profiled corpus failed to compile a block")
	}
	bare := Item{Node: 1, K: 2, Out: trees[0]}
	if blk.bounds(bare, make([]int32, blk.n), make([]int32, blk.n)) {
		t.Error("bounds accepted an unprofiled query")
	}
}
