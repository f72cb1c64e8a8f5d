package ned

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"ned/internal/ted"
	"ned/internal/tree"
)

// This file wraps the columnar profile arenas (internal/tree) into the
// candidate block the cascade sweep reads at any width: one arena for the
// out-trees, one for the in-trees when the corpus is directed. A block is
// compiled over node-sorted items — a scan's base when it is built or
// folded, its delta when a mutation replaces the delta — and is immutable
// afterwards, so epoch clones share it.
//
// A block's rows are ordered by size key — the out-tree's node count,
// plus the in-tree's when directed — with the item slot as tiebreak, and
// item maps each row back to the slot of the item it describes; the
// items themselves stay node-sorted. Since |Δout| + |Δin| ≥ |Δ(out+in)|,
// the size key lower-bounds the size tier, so the rows whose size bound
// can be within w of a query are one contiguous range, found by binary
// search (window): a query bounds the rows of its window only and
// dismisses the others, in bulk, by size. Tier 2 reads a row's level
// widths and degree runs from the arenas too (degreeTierPrunes), so a
// candidate's *Item is dereferenced only when it reaches the verify
// stage.

// profileBlock is the struct-of-arrays form of a set of items' profiles:
// every part of a sweep has one.
type profileBlock struct {
	out *tree.ProfileArena
	in  *tree.ProfileArena // nil for undirected items
	// item[r] is the slot of the item row r describes; rows ascend by
	// (size key, item slot).
	item []int32
	n    int
}

// compileBlock builds the block over items, which must all be profiled
// and all directed or all undirected; anything else is a programming
// error and panics. An empty batch gets an empty block. A row whose
// item — same node, same profiles — a block of from already holds is
// copied from that block's arenas, which it reads in row order: a write
// recompiles its delta from the last one, a fold its base from the old
// base and delta. The other rows are gathered from their items'
// profiles and put in size-key order by a counting sort, and the runs
// are merged, so compiling costs O(n) either way.
func compileBlock(items []Item, from ...sweepPart) *profileBlock {
	directed := len(items) > 0 && items[0].In != nil
	keys := make([]int32, len(items))
	for i := range items {
		it := &items[i]
		mustProfiled(it)
		if (it.In != nil) != directed {
			panic("ned: a profile block mixes directed and undirected items")
		}
		keys[i] = it.OutP.Size
		if directed {
			keys[i] += it.InP.Size
		}
	}
	held := make([]bool, len(items))
	var rows []blockRow
	for _, src := range from {
		if src.blk == nil {
			continue
		}
		to := matchSlots(src.items, items)
		run := make([]blockRow, 0, src.blk.n)
		for r := range int32(src.blk.n) {
			if s := to[src.blk.item[r]]; s >= 0 && !held[s] {
				held[s] = true
				run = append(run, blockRow{key: keys[s], slot: s, blk: src.blk, r: r})
			}
		}
		rows = mergeRows(rows, run)
	}
	var fresh []int32
	for i, h := range held {
		if !h {
			fresh = append(fresh, int32(i))
		}
	}
	fresh, _ = orderBy(fresh, keys, nil, nil)
	run := make([]blockRow, len(fresh))
	for i, s := range fresh {
		run[i] = blockRow{key: keys[s], slot: s}
	}
	rows = mergeRows(rows, run)
	blk := &profileBlock{item: make([]int32, len(rows)), n: len(rows)}
	for i, x := range rows {
		blk.item[i] = x.slot
	}
	blk.out = tree.CompileRuns(arenaRuns(rows, items, false))
	if directed {
		blk.in = tree.CompileRuns(arenaRuns(rows, items, true))
	}
	return blk
}

// blockRow is one row of a block being compiled: its size key, its item
// slot, and the block row it is copied from (blk nil: its item's
// profiles).
type blockRow struct {
	key, slot int32
	blk       *profileBlock
	r         int32
}

// arenaRuns turns rows into the runs tree.CompileRuns copies for the
// out-trees' arena, or the in-trees' when in is set: each stretch of
// consecutive rows of one source block is one run.
func arenaRuns(rows []blockRow, items []Item, in bool) []tree.ArenaRun {
	var runs []tree.ArenaRun
	for _, x := range rows {
		if x.blk == nil {
			p := items[x.slot].OutP
			if in {
				p = items[x.slot].InP
			}
			runs = append(runs, tree.ArenaRun{P: p})
			continue
		}
		from := x.blk.out
		if in {
			from = x.blk.in
		}
		if k := len(runs) - 1; k >= 0 && runs[k].From == from && runs[k].Hi == int(x.r) {
			runs[k].Hi++
			continue
		}
		runs = append(runs, tree.ArenaRun{From: from, Lo: int(x.r), Hi: int(x.r) + 1})
	}
	return runs
}

// mergeRows merges two runs of rows, each ascending by (size key, slot).
func mergeRows(a, b []blockRow) []blockRow {
	if len(a) == 0 {
		return b
	}
	out := make([]blockRow, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].key < a[0].key || (b[0].key == a[0].key && b[0].slot < a[0].slot) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// matchSlots maps each slot of src to the slot of dst holding the same
// item — same node, same profiles — or -1. Both are node-sorted, so the
// map ascends wherever it is set.
func matchSlots(src, dst []Item) []int32 {
	to := make([]int32, len(src))
	j := 0
	for i, it := range src {
		for j < len(dst) && dst[j].Node < it.Node {
			j++
		}
		to[i] = -1
		if j < len(dst) && dst[j].Node == it.Node && dst[j].OutP == it.OutP && dst[j].InP == it.InP {
			to[i] = int32(j)
			j++
		}
	}
	return to
}

// bytes is the size of the block's columns: what compiling it copied.
func (b *profileBlock) bytes() int64 {
	n := b.out.Bytes() + 4*int64(len(b.item))
	if b.in != nil {
		n += b.in.Bytes()
	}
	return n
}

// key is row r's size key.
func (b *profileBlock) key(r int) int32 {
	k := b.out.Sizes[r]
	if b.in != nil {
		k += b.in.Sizes[r]
	}
	return k
}

// rowsBelow is the number of rows whose size key is below k.
func (b *profileBlock) rowsBelow(k int64) int32 {
	lo, hi := 0, b.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int64(b.key(m)) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// window returns the rows [lo, hi) whose size key is within w of the
// profiled query's: every row outside it has a size bound above w. A
// query whose size key would not bound the size tier here — one without
// an in-tree against a directed block — gets every row.
func (b *profileBlock) window(q Item, w int) (lo, hi int32) {
	if b.in != nil && q.In == nil {
		return 0, int32(b.n)
	}
	qk := int64(q.OutP.Size)
	if b.in != nil {
		qk += int64(q.InP.Size)
	}
	w64 := int64(min(w, math.MaxInt32))
	return b.rowsBelow(qk - w64), b.rowsBelow(qk + w64 + 1)
}

// rowOf is the row describing slot s of items, the items the block was
// compiled over.
func (b *profileBlock) rowOf(items []Item, s int32) int32 {
	k := items[s].OutP.Size
	if b.in != nil {
		k += items[s].InP.Size
	}
	r := sort.Search(b.n, func(r int) bool {
		kr := b.key(r)
		return kr > k || (kr == k && b.item[r] >= s)
	})
	if r == b.n || b.item[r] != s {
		panic("ned: an item slot has no row in its block")
	}
	return int32(r)
}

// bounds sweeps the size and padding tiers over rows [lo, hi) against
// the profiled query, writing row lo+i's bounds to sizeB[i] and padB[i]
// (len >= hi-lo each). A directed pair's bounds sum over its out- and
// in-trees.
func (b *profileBlock) bounds(q Item, lo, hi int32, sizeB, padB []int32) {
	mustProfiled(&q)
	n := int(hi - lo)
	sizeB, padB = sizeB[:n], padB[:n]
	clear(sizeB)
	clear(padB)
	boundArena(q.OutP, b.out, lo, hi, sizeB, padB)
	if b.in != nil && q.In != nil {
		boundArena(q.InP, b.in, lo, hi, sizeB, padB)
	}
}

// boundArena accumulates one tree pair's size and padding tiers over
// rows [lo, hi) of a.
func boundArena(p *tree.Profile, a *tree.ProfileArena, lo, hi int32, sizeB, padB []int32) {
	sizeTierBlock(p.Size, a.Sizes[lo:hi], sizeB)
	paddingTierBlock(p.Levels, a.Width, a.Levels[int(lo)*a.Width:int(hi)*a.Width], padB)
}

// degreeTierPrunes is tier 2 on row r, the column form of the item-level
// degreeTierPrunes: pad plus ted.DegreeExcessRuns of the out-pair and
// then of the in-pair, each under whatever the sum so far left of t,
// with the row's level widths and degree runs read from the arenas.
func (b *profileBlock) degreeTierPrunes(q Item, r int32, pad, t int) (bound int, pruned bool) {
	bound = pad
	if bound <= t {
		la, da := b.out.Row(int(r))
		bound += ted.DegreeExcessRuns(q.OutP.Levels, q.OutP.InnerDegs(), la, da, t-bound)
	}
	if bound <= t && b.in != nil && q.In != nil {
		la, da := b.in.Row(int(r))
		bound += ted.DegreeExcessRuns(q.InP.Levels, q.InP.InnerDegs(), la, da, t-bound)
	}
	return bound, bound > t
}

// deadWithin is the part of dead, ascending rows, that lies in [lo, hi).
func deadWithin(dead []int32, lo, hi int32) []int32 {
	a, _ := slices.BinarySearch(dead, lo)
	b, _ := slices.BinarySearch(dead, hi)
	return dead[a:b]
}

// rangeBlockSurvivors runs the whole filter cascade over the part's
// block at the static threshold r >= 0 and returns the rows that reach
// the verify stage, ascending. Only the window of rows within r of the
// query's size key is bounded: the rows outside it are dismissed by
// size in bulk. Within it, the size and padding tiers fold into a
// survivor bitmap in one kernel sweep, the part's dead rows are masked
// out of it, then tier 2 walks only the set bits. A radius past the
// int32 kernel arithmetic is clamped to its largest value, which every
// bound is far below, so the survivors are the same. All counter
// accounting for the filtered live rows happens here, and none for dead
// ones; the caller verifies the survivors (which records the verify
// outcomes). The returned slice is the scratch's own.
func (sc *sweepScratch) rangeBlockSurvivors(q Item, pt sweepPart, r int) []int32 {
	blk, cs := pt.blk, pt.cs
	lo, hi := blk.window(q, r)
	n := int(hi - lo)
	sc.sizeB, sc.padB = grow(sc.sizeB, n), grow(sc.padB, n)
	sizeB, padB := sc.sizeB, sc.padB
	blk.bounds(q, lo, hi, sizeB, padB)
	live := blk.n - len(pt.dead)
	cs.blockSweep(live)
	cs.rowsBound(n)
	sc.words = grow(sc.words, (n+63)/64)
	words := sc.words
	t := int32(min(r, math.MaxInt32))
	szPruned, padPruned := tierFilterBlock(sizeB[:n], padB[:n], t, words)
	// A dead row is not a candidate: clear its survivor bit, or take back
	// the tier the bitmap pass charged it to.
	inside := deadWithin(pt.dead, lo, hi)
	for _, d := range inside {
		s := d - lo
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
	szPruned += blk.n - n - (len(pt.dead) - len(inside)) // the live rows outside the window
	cs.cascadePruneBulk(int64(szPruned), int64(padPruned))
	survivors := sc.survivors[:0]
	for w, word := range words {
		base := int32(w) << 6
		for word != 0 {
			j := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if _, pruned := blk.degreeTierPrunes(q, lo+j, int(padB[j]), r); pruned {
				cs.cascadePrune(tierDegree)
				continue
			}
			survivors = append(survivors, lo+j)
		}
	}
	cs.blockSurviveBulk(int64(live-szPruned), int64(live-szPruned-padPruned), int64(len(survivors)))
	sc.survivors = survivors
	return survivors
}
