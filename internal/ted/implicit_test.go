package ted

import (
	"math/rand"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/tree"
)

// unequalHeightPairs is a deterministic set of tree pairs of unequal
// height, each a profile's implicit deepest level apart from the other:
// random BFS-order trees of heights 0..5 (single nodes included), and
// the k = 2 and 3 out-trees of the six dataset analogs (leaves, hubs
// and everything between, so heights differ pair to pair).
func unequalHeightPairs() [][2]*tree.Tree {
	rng := rand.New(rand.NewSource(41))
	var trees []*tree.Tree
	for range 120 {
		parent := []int32{-1}
		lo, hi := 0, 1
		for range rng.Intn(6) {
			for p := lo; p < hi; p++ {
				kids := rng.Intn(4)
				if p == 0 {
					kids++ // a height drawn above 0 is at least 1
				}
				for range kids {
					parent = append(parent, int32(p))
				}
			}
			lo, hi = hi, len(parent)
		}
		trees = append(trees, tree.MustNew(parent))
	}
	trees = append(trees, tree.MustNew([]int32{-1}), tree.Star(1), tree.Star(5), tree.Path(3))
	for _, name := range datasets.All {
		g := datasets.MustGenerate(name, datasets.Options{Scale: 0.05, Seed: 7})
		for _, k := range []int{2, 3} {
			for v := 0; v < g.NumNodes(); v += 1 + g.NumNodes()/40 {
				trees = append(trees, tree.Extract(g, graph.NodeID(v), k, graph.Outgoing))
			}
		}
	}
	var pairs [][2]*tree.Tree
	for i, a := range trees {
		for _, b := range trees[i+1 : min(i+12, len(trees))] {
			if a.Height() != b.Height() {
				pairs = append(pairs, [2]*tree.Tree{a, b})
			}
		}
	}
	return pairs
}

// TestProfiledBitIdenticalUnequalHeights extends the bit-identity of
// the profiled fast path to DistanceAtMost over pairs of unequal height,
// at every budget from 0 past the distance: the shallower profile's
// deepest level is implicit, and on many of these pairs the first
// non-empty residue lands on it — the pre-match against a leaf run, the
// implicit kid runs of the level above it in the cost matrix, and the
// leaf scatter before adoption all run there.
func TestProfiledBitIdenticalUnequalHeights(t *testing.T) {
	in := tree.NewInterner()
	cOriented, cProfiled := NewComputer(), NewComputer()
	pairs, onImplicit, single := 0, 0, 0
	for _, pr := range unequalHeightPairs() {
		a, b := pr[0], pr[1]
		pa, pb := in.Profile(a), in.Profile(b)
		if pa.Canon == pb.Canon {
			continue
		}
		if profileSwapTest(a, b, pa, pb) {
			a, b, pa, pb = b, a, pb, pa
		}
		want := cOriented.Distance(a, b)
		budgets := []int{Unbounded}
		for budget := 0; budget <= want+2; budget++ {
			budgets = append(budgets, budget)
		}
		for _, budget := range budgets {
			wd, wout := cOriented.DistanceAtMost(a, b, budget)
			gd, gout := cProfiled.DistanceAtMostProfiled(a, b, pa, pb, budget)
			if gd != wd || gout != wout {
				t.Fatalf("profiled (%d,%v) != oriented (%d,%v) at budget %d for %q vs %q",
					gd, gout, wd, wout, budget, tree.Encode(a), tree.Encode(b))
			}
		}
		pairs++
		if a.Size() == 1 || b.Size() == 1 {
			single++
		}
		// At a height gap of one the taller tree's deepest level is all
		// leaves, which the pads absorb, and its level above holds a node
		// with children, which no leaf or pad matches: the first
		// non-empty residue is on the shallower tree's implicit level.
		if d := a.Height() - b.Height(); d == 1 || d == -1 {
			onImplicit++
		}
	}
	if pairs < 1000 || onImplicit < 100 || single < 5 {
		t.Fatalf("sweep too thin: %d pairs, %d with a residue on the shallower implicit level, %d with a single node", pairs, onImplicit, single)
	}
	t.Logf("checked %d pairs: %d with a residue on the shallower implicit level, %d with a single node", pairs, onImplicit, single)
}

// fullLevelLabelTerm is LevelLabelTerm over every level's stored labels,
// the deepest included — the profile layout before the deepest level
// became implicit, rebuilt by appending Levels[h] copies of LeafLabel.
func fullLevelLabelTerm(a, b *tree.Profile) int {
	full := func(p *tree.Profile) []int32 {
		out := append([]int32(nil), p.Labels...)
		for range p.Levels[p.Height()] {
			out = append(out, p.LeafLabel)
		}
		return out
	}
	la, lb := full(a), full(b)
	maxDiff := int64(0)
	var offA, offB int32
	for d := 0; d < len(a.Levels) || d < len(b.Levels); d++ {
		var runA, runB []int32
		if d < len(a.Levels) {
			runA = la[offA : offA+a.Levels[d]]
			offA += a.Levels[d]
		}
		if d < len(b.Levels) {
			runB = lb[offB : offB+b.Levels[d]]
			offB += b.Levels[d]
		}
		maxDiff = max(maxDiff, symmetricDifference(runA, runB))
	}
	return int((maxDiff + 3) / 4)
}

// TestLevelLabelTermCountsImplicitLevel pins LevelLabelTerm and
// LabelBound, which read the deepest level as a leaf run of its width,
// to the full-label form on the unequal-height pairs and to the sums
// the full-label implementation produced on them (profiles interned in
// pair order on one dictionary): the harness's ted.bound_ns times them.
func TestLevelLabelTermCountsImplicitLevel(t *testing.T) {
	in := tree.NewInterner()
	var sumTerm, sumBound int
	for _, pr := range unequalHeightPairs() {
		pa, pb := in.Profile(pr[0]), in.Profile(pr[1])
		got, want := LevelLabelTerm(pa, pb), fullLevelLabelTerm(pa, pb)
		if got != want || LevelLabelTerm(pb, pa) != want {
			t.Fatalf("LevelLabelTerm = %d, full-label form %d (%q vs %q)", got, want, tree.Encode(pr[0]), tree.Encode(pr[1]))
		}
		if lb := LabelBound(pa, pb); lb != max(want, PaddingBound(pa, pb)) {
			t.Fatalf("LabelBound = %d, want max(%d, padding %d)", lb, want, PaddingBound(pa, pb))
		}
		sumTerm += got
		sumBound += LabelBound(pa, pb)
	}
	if sumTerm != pinnedLabelTermSum || sumBound != pinnedLabelBoundSum {
		t.Fatalf("LevelLabelTerm sums to %d and LabelBound to %d, want %d and %d", sumTerm, sumBound, pinnedLabelTermSum, pinnedLabelBoundSum)
	}
}

// The sums LevelLabelTerm and LabelBound gave over unequalHeightPairs
// while profiles stored every level.
const (
	pinnedLabelTermSum  = 20022
	pinnedLabelBoundSum = 106771
)
