package ned

import (
	"math"
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
// A query sweeps a base block and a delta block per scan.

// profileBlock is the struct-of-arrays form of a set of items' profiles:
// every part of a sweep has one.
type profileBlock struct {
	out *tree.ProfileArena
	in  *tree.ProfileArena // nil for undirected items
	n   int
}

// compileBlock builds the block over items, which must all be profiled
// and all directed or all undirected; anything else is a programming
// error and panics. An empty batch gets an empty block.
func compileBlock(items []Item) *profileBlock {
	directed := len(items) > 0 && items[0].In != nil
	outs := make([]*tree.Profile, len(items))
	var ins []*tree.Profile
	if directed {
		ins = make([]*tree.Profile, len(items))
	}
	for i := range items {
		it := &items[i]
		mustProfiled(it)
		if (it.In != nil) != directed {
			panic("ned: a profile block mixes directed and undirected items")
		}
		outs[i] = it.OutP
		if directed {
			ins[i] = it.InP
		}
	}
	blk := &profileBlock{out: tree.CompileArena(outs), n: len(items)}
	if directed {
		blk.in = tree.CompileArena(ins)
	}
	return blk
}

// bytes is the size of the block's columns: what compiling it copied.
func (b *profileBlock) bytes() int64 {
	n := len(b.out.Sizes) + len(b.out.Levels)
	if b.in != nil {
		n += len(b.in.Sizes) + len(b.in.Levels)
	}
	return 4 * int64(n)
}

// bounds sweeps the size and padding tiers over the whole block against
// the profiled query, filling the per-slot bound arrays (len >= b.n
// each). A directed pair's bounds sum over its out- and in-trees.
func (b *profileBlock) bounds(q Item, sizeB, padB []int32) {
	mustProfiled(&q)
	sizeB, padB = sizeB[:b.n], padB[:b.n]
	clear(sizeB)
	clear(padB)
	sizeTierBlock(q.OutP.Size, b.out.Sizes, sizeB)
	paddingTierBlock(q.OutP.Levels, b.out.Width, b.out.Levels, padB)
	if b.in != nil && q.In != nil {
		sizeTierBlock(q.InP.Size, b.in.Sizes, sizeB)
		paddingTierBlock(q.InP.Levels, b.in.Width, b.in.Levels, padB)
	}
}

// rangeBlockSurvivors runs the whole filter cascade over the part's
// block at the static threshold r >= 0 and returns the slots that reach
// the verify stage, in slot order: the size and padding tiers fold into
// a survivor bitmap in one kernel sweep, the part's dead slots are
// masked out of it, then the lazy degree tier walks only the set bits.
// A radius past the int32 kernel arithmetic is clamped to its largest
// value, which every bound is far below, so the survivors are the same.
// All counter accounting for the filtered live slots happens here, and
// none for dead ones; the caller verifies the survivors (which records
// the verify outcomes). The returned slice is the scratch's own.
func (sc *sweepScratch) rangeBlockSurvivors(q Item, pt sweepPart, r int) []int32 {
	blk, items, cs := pt.blk, pt.items, pt.cs
	sc.sizeB, sc.padB = grow(sc.sizeB, blk.n), grow(sc.padB, blk.n)
	sizeB, padB := sc.sizeB, sc.padB
	blk.bounds(q, sizeB, padB)
	live := blk.n - len(pt.dead)
	cs.blockSweep(live)
	sc.words = grow(sc.words, (blk.n+63)/64)
	words := sc.words
	t := int32(min(r, math.MaxInt32))
	szPruned, padPruned := tierFilterBlock(sizeB, padB, t, words)
	// A dead slot is not a candidate: clear its survivor bit, or take back
	// the tier the bitmap pass charged it to.
	for _, s := range pt.dead {
		bit := uint64(1) << (uint(s) & 63)
		switch {
		case words[s>>6]&bit != 0:
			words[s>>6] &^= bit
		case sizeB[s] > t:
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
			if _, pruned := degreeTierPrunes(q, items[j], int(padB[j]), r); pruned {
				cs.cascadePrune(tierDegree)
				continue
			}
			survivors = append(survivors, j)
		}
	}
	cs.blockSurviveBulk(int64(live-szPruned), int64(live-szPruned-padPruned), int64(len(survivors)))
	sc.survivors = survivors
	return survivors
}
