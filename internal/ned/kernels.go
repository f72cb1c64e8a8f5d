package ned

import (
	"cmp"
	"iter"
	"slices"
)

// This file holds the block kernels of the filter cascade: tight loops
// that sweep one tier across a whole candidate block laid out as a
// struct-of-arrays profile arena (block.go), writing per-slot bound
// values or a survivor bitmap. Each kernel reads only contiguous int32
// arrays — no *Item or *Profile is dereferenced — so the hot loops stay
// branch-light and bounds-check-hoisted. They are the only form of tiers
// 0 and 1; kernels_test.go pins every slot's bounds to ted.SizeBound and
// ted.PaddingBound and below the exact distance.

// sizeTierBlock accumulates the size tier into dst: dst[i] +=
// |qSize − sizes[i]|. Accumulation (not assignment) lets directed
// corpora run one pass per tree pair over a shared destination.
func sizeTierBlock(qSize int32, sizes, dst []int32) {
	if len(dst) < len(sizes) {
		panic("ned: sizeTierBlock destination too short")
	}
	dst = dst[:len(sizes)]
	for i, s := range sizes {
		d := qSize - s
		if d < 0 {
			d = -d
		}
		dst[i] += d
	}
}

// paddingTierBlock accumulates the padding tier into dst: for each slot
// i with level row levels[i*width : (i+1)*width] of the arena's dense,
// zero-padded matrix, dst[i] += Σ_d | qLevels[d] − row[d] | — exactly
// ted.PaddingBound, because a level one side lacks reads as zero on
// that side. The query is padded or cut to the width once; its levels
// past the width meet only zeros, so they add one per-query constant.
// The per-slot loop has a fixed trip count and no branches.
func paddingTierBlock(qLevels []int32, width int, levels, dst []int32) {
	var buf [8]int32
	q := buf[:0]
	if width > len(buf) {
		q = make([]int32, 0, width)
	}
	n := min(width, len(qLevels))
	q = append(q, qLevels[:n]...)[:width]
	var past int32
	for _, m := range qLevels[n:] {
		past += m
	}
	for i := range dst {
		row := levels[i*width:][:len(q)]
		sum := past
		for d, m := range row {
			sum += abs32(q[d] - m)
		}
		dst[i] += sum
	}
}

// abs32 is |x|, branch-free.
func abs32(x int32) int32 {
	mask := x >> 31
	return (x ^ mask) - mask
}

// tierFilterBlock folds the size and padding tiers at threshold t into
// a survivor bitmap: bit i is set iff padB[i] <= t (which subsumes
// sizeB[i] <= t by the dominance chain). The returned counts attribute
// every dismissed slot to the cheapest tier that already decides it.
func tierFilterBlock(sizeB, padB []int32, t int32, bits []uint64) (szPruned, padPruned int) {
	if len(bits) < (len(padB)+63)/64 {
		panic("ned: tierFilterBlock bitmap too short")
	}
	for w := range bits {
		bits[w] = 0
	}
	sz := sizeB[:len(padB)]
	for i, p := range padB {
		if p <= t {
			bits[i>>6] |= 1 << (uint(i) & 63)
			continue
		}
		if sz[i] > t {
			szPruned++
		} else {
			padPruned++
		}
	}
	return szPruned, padPruned
}

// blockOrder returns every live slot of a sweep in ascending padding
// bound via a counting sort over the bound values: one pass to
// histogram, one stable pass to place. padB is indexed by global slot —
// part p's slots are ends[p-1] (0 for the first part) up to ends[p], in
// ascending node order — and dead[p] lists, ascending, the local slots
// of part p that are not candidates, so ties go part after part and by
// node within a part: for one part, exactly the canonical (padding
// bound, node) order. Both passes walk the live spans between dead
// slots; with nothing dead the histogram is one direct pass over padB.
// NED bounds are small integers, so the count array is tiny; a
// degenerate corpus whose bound range dwarfs the slot count takes a
// stable comparison sort of the same sequence instead. order and counts
// are reused when large enough; both are returned, possibly regrown.
func blockOrder(padB []int32, dead [][]int32, ends []int32, order, counts []int32) ([]int32, []int32) {
	n := len(padB)
	for _, d := range dead {
		n -= len(d)
	}
	order = grow(order, n)
	var maxPad int32
	for _, p := range padB {
		maxPad = max(maxPad, p)
	}
	spans := func(yield func(lo, hi int32) bool) {
		for p, d := range dead {
			base := partBase(ends, p)
			for lo, hi := range liveSpans(ends[p]-base, d) {
				if !yield(base+lo, base+hi) {
					return
				}
			}
		}
	}
	if int(maxPad) > 4*n+4096 {
		order = order[:0]
		for lo, hi := range spans {
			for g := lo; g < hi; g++ {
				order = append(order, g)
			}
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(padB[a], padB[b]) })
		return order, counts
	}
	counts = grow(counts, int(maxPad)+2)
	clear(counts)
	if n == len(padB) {
		for _, p := range padB {
			counts[p+1]++
		}
	} else {
		for lo, hi := range spans {
			for _, p := range padB[lo:hi] {
				counts[p+1]++
			}
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for lo, hi := range spans {
		for g := lo; g < hi; g++ {
			pb := padB[g]
			order[counts[pb]] = g
			counts[pb]++
		}
	}
	return order, counts
}

// liveSpans yields the maximal runs [lo, hi) of slots 0..n-1 that dead
// (ascending) does not list: the live run of a part, as spans.
func liveSpans(n int32, dead []int32) iter.Seq2[int32, int32] {
	return func(yield func(lo, hi int32) bool) {
		lo := int32(0)
		for _, d := range dead {
			if lo < d && !yield(lo, d) {
				return
			}
			lo = d + 1
		}
		if lo < n {
			yield(lo, n)
		}
	}
}

// partBase is the first global slot of part p.
func partBase(ends []int32, p int) int32 {
	if p == 0 {
		return 0
	}
	return ends[p-1]
}

// grow returns s resliced to n, reallocated only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
