package ned

import (
	"cmp"
	"math/bits"
	"slices"

	"ned/internal/tree"
)

// This file wraps the columnar profile arenas (internal/tree) into the
// candidate block the cascade sweep reads at any width: one arena for the
// out-trees, one for the in-trees when the corpus is directed, plus the
// slot permutation sorted by node that makes the sweep's counting sort
// break padding ties by node. The block is compiled when a scan backend
// is built or mutated and is immutable afterwards, so epoch clones share
// it; the item slice and the block are index-aligned (slot i describes
// items[i]). A sharded query sweeps one block per shard.

// profileBlock is the struct-of-arrays form of a scan backend's item
// profiles. nil (or a failed compile) means the backend runs the
// scalar per-candidate cascade with identical results.
type profileBlock struct {
	out *tree.ProfileArena
	in  *tree.ProfileArena // nil for undirected corpora
	n   int

	// byNode holds the slots sorted ascending by node ID — the stable
	// iteration order that lets blockOrder's counting sort break padding
	// ties by node.
	byNode []int32
}

// compileBlock builds the block over items, or returns nil when the
// batch cannot take the block path: any item unprofiled, or a mix of
// directed and undirected items. Callers treat nil as "use the scalar
// cascade".
func compileBlock(items []Item) *profileBlock {
	if len(items) == 0 {
		return nil
	}
	directed := items[0].In != nil
	outs := make([]*tree.Profile, len(items))
	var ins []*tree.Profile
	if directed {
		ins = make([]*tree.Profile, len(items))
	}
	for i := range items {
		it := &items[i]
		if it.OutP == nil || (it.In != nil) != directed {
			return nil
		}
		outs[i] = it.OutP
		if directed {
			if it.InP == nil {
				return nil
			}
			ins[i] = it.InP
		}
	}
	blk := &profileBlock{out: tree.CompileArena(outs), n: len(items)}
	if blk.out == nil {
		return nil
	}
	if directed {
		if blk.in = tree.CompileArena(ins); blk.in == nil {
			return nil
		}
	}
	blk.byNode = nodeOrder(items)
	return blk
}

// nodeOrder returns the slots of items sorted ascending by node. A
// scan's items are kept node-sorted (its Insert merges, its Remove is
// stable, the Corpus builds from sorted items), so this is normally the
// identity, returned after one O(n) check.
func nodeOrder(items []Item) []int32 {
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	if !slices.IsSortedFunc(items, func(a, b Item) int { return cmp.Compare(a.Node, b.Node) }) {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(items[a].Node, items[b].Node) })
	}
	return order
}

// bounds sweeps the size and padding tiers over the whole block,
// filling the per-slot bound arrays (len >= b.n each). It reports false
// when the query side lacks the profiles the kernels need — the scan
// then falls back to the scalar path. The values are bit-identical to
// itemCascadeBounds on every slot (kernels_test.go).
func (b *profileBlock) bounds(q Item, sizeB, padB []int32) bool {
	if q.OutP == nil {
		return false
	}
	directed := b.in != nil && q.In != nil
	if directed && q.InP == nil {
		return false
	}
	sizeB, padB = sizeB[:b.n], padB[:b.n]
	clear(sizeB)
	clear(padB)
	sizeTierBlock(q.OutP.Size, b.out.Sizes, sizeB)
	paddingTierBlock(q.OutP.Levels, b.out.Width, b.out.Levels, padB)
	if directed {
		sizeTierBlock(q.InP.Size, b.in.Sizes, sizeB)
		paddingTierBlock(q.InP.Levels, b.in.Width, b.in.Levels, padB)
	}
	return true
}

// blockThresholdCap bounds the radii the block Range path serves:
// beyond it the int32 tier arithmetic could not represent the
// threshold, and a radius that large prunes nothing anyway, so those
// queries take the scalar path.
const blockThresholdCap = 1 << 30

// rangeBlockSurvivors runs the whole filter cascade over the block at
// the static threshold r and returns the slots that reach the verify
// stage, in slot order: the size and padding tiers fold into a
// survivor bitmap in one kernel sweep, then the lazy degree tier walks
// only the set bits. ok is false when the scan must take the scalar
// path instead — no block, a block misaligned with the item slice, an
// unprofiled query, or a radius beyond the int32 tier arithmetic. All
// counter accounting for the filtered slots happens here; the caller
// verifies the survivors (which records the verify outcomes). The
// returned slice is the scratch's own.
func (sc *sweepScratch) rangeBlockSurvivors(q Item, items []Item, blk *profileBlock, r int, cs *counterSet) ([]int32, bool) {
	if blk == nil || blk.n != len(items) || r < 0 || r >= blockThresholdCap {
		return nil, false
	}
	sc.sizeB, sc.padB = grow(sc.sizeB, blk.n), grow(sc.padB, blk.n)
	sizeB, padB := sc.sizeB, sc.padB
	if !blk.bounds(q, sizeB, padB) {
		return nil, false
	}
	cs.blockSweep(blk.n)
	sc.words = grow(sc.words, (blk.n+63)/64)
	words := sc.words
	szPruned, padPruned := tierFilterBlock(sizeB, padB, int32(r), words)
	cs.cascadePruneBulk(int64(szPruned), int64(padPruned))
	survivors := sc.survivors[:0]
	for w, word := range words {
		base := int32(w) << 6
		for word != 0 {
			j := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if _, pruned := degreeTierPrunes(q, items[j], r); pruned {
				cs.cascadePrune(tierDegree)
				continue
			}
			survivors = append(survivors, j)
		}
	}
	cs.blockSurviveBulk(int64(blk.n-szPruned), int64(blk.n-szPruned-padPruned), int64(len(survivors)))
	sc.survivors = survivors
	return survivors, true
}
