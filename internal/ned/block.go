package ned

import (
	"math/bits"

	"ned/internal/tree"
)

// This file wraps the columnar profile arenas (internal/tree) into the
// candidate block the cascade sweep reads at any width: one arena for the
// out-trees, one for the in-trees when the corpus is directed. A block is
// compiled over node-sorted items — a scan's base when it is built or
// folded, its delta when a mutation replaces the delta — and is immutable
// afterwards, so epoch clones share it; the item slice and the block are
// index-aligned (slot i describes items[i]), so slot order is node order.
// A sharded query sweeps a base block and a delta block per shard.

// profileBlock is the struct-of-arrays form of a scan backend's item
// profiles. nil (or a failed compile) means the backend runs the
// scalar per-candidate cascade with identical results.
type profileBlock struct {
	out *tree.ProfileArena
	in  *tree.ProfileArena // nil for undirected corpora
	n   int
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
	return blk
}

// bytes is the size of the block's columns, 0 for a nil block: what
// compiling it copied.
func (b *profileBlock) bytes() int64 {
	if b == nil {
		return 0
	}
	n := len(b.out.Sizes) + len(b.out.Levels)
	if b.in != nil {
		n += len(b.in.Sizes) + len(b.in.Levels)
	}
	return 4 * int64(n)
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

// rangeBlockSurvivors runs the whole filter cascade over the part's
// block at the static threshold r and returns the slots that reach the
// verify stage, in slot order: the size and padding tiers fold into a
// survivor bitmap in one kernel sweep, the part's dead slots are masked
// out of it, then the lazy degree tier walks only the set bits. ok is
// false when the scan must take the scalar path instead — no block, a
// block misaligned with the item slice, an unprofiled query, or a radius
// beyond the int32 tier arithmetic. All counter accounting for the
// filtered live slots happens here, and none for dead ones; the caller
// verifies the survivors (which records the verify outcomes). The
// returned slice is the scratch's own.
func (sc *sweepScratch) rangeBlockSurvivors(q Item, pt sweepPart, r int) ([]int32, bool) {
	blk, items, cs := pt.blk, pt.items, pt.cs
	if blk == nil || blk.n != len(items) || r < 0 || r >= blockThresholdCap {
		return nil, false
	}
	sc.sizeB, sc.padB = grow(sc.sizeB, blk.n), grow(sc.padB, blk.n)
	sizeB, padB := sc.sizeB, sc.padB
	if !blk.bounds(q, sizeB, padB) {
		return nil, false
	}
	live := blk.n - len(pt.dead)
	cs.blockSweep(live)
	sc.words = grow(sc.words, (blk.n+63)/64)
	words := sc.words
	szPruned, padPruned := tierFilterBlock(sizeB, padB, int32(r), words)
	// A dead slot is not a candidate: clear its survivor bit, or take back
	// the tier the bitmap pass charged it to.
	for _, s := range pt.dead {
		bit := uint64(1) << (uint(s) & 63)
		switch {
		case words[s>>6]&bit != 0:
			words[s>>6] &^= bit
		case sizeB[s] > int32(r):
			szPruned--
		default:
			padPruned--
		}
	}
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
	cs.blockSurviveBulk(int64(live-szPruned), int64(live-szPruned-padPruned), int64(len(survivors)))
	sc.survivors = survivors
	return survivors, true
}
