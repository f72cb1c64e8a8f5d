package ned

import (
	"cmp"
	"slices"
)

// This file holds the block kernels of the filter cascade: tight loops
// that sweep one tier across a range of a candidate block's ranks,
// gathering their rows from the struct-of-arrays profile arena
// (block.go), writing per-rank bound values or a survivor bitmap. Each
// kernel reads only int32 columns — no tree or profile is built — so
// the hot loops stay branch-light. They are the only
// form of tiers 0 and 1; kernels_test.go pins every row's bounds to
// ted.SizeBound and ted.PaddingBound and below the exact distance.

// sizeTierBlock accumulates the size tier of the given physical rows
// into dst: dst[i] += |qSize − sizes[rows[i]]|. Accumulation (not
// assignment) lets directed corpora run one pass per tree pair over a
// shared destination.
func sizeTierBlock(qSize int32, sizes, rows, dst []int32) {
	if len(dst) < len(rows) {
		panic("ned: sizeTierBlock destination too short")
	}
	dst = dst[:len(rows)]
	for i, r := range rows {
		dst[i] += abs32(qSize - sizes[r])
	}
}

// paddingTierBlock accumulates the padding tier of the given physical
// rows into dst: for each, with level vector row = levels[r*width :
// (r+1)*width] of the arena's dense, zero-padded matrix, dst[i] += Σ_d
// | qLevels[d] − row[d] | — exactly ted.PaddingBound, because a level
// one side lacks reads as zero on that side. The query is padded or cut
// to the width once; its levels past the width meet only zeros, so they
// add one per-query constant. The per-row loop has a fixed trip count
// and no branches.
func paddingTierBlock(qLevels []int32, width int, levels, rows, dst []int32) {
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
	dst = dst[:len(rows)]
	for i, r := range rows {
		row := levels[int(r)*width:][:len(q)]
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
// every dismissed row to the cheapest tier that already decides it.
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

// orderBy writes ids to dst stably ordered by ascending val[id]: a
// counting sort over the values' range, since NED sizes and bounds are
// small integers, so compiling a block's row order and ordering a
// window's new rows by padding bound both cost O(n). A degenerate batch
// whose value range dwarfs its length takes a stable comparison sort
// instead. dst and counts are reused when large enough; both are
// returned, possibly regrown.
func orderBy(ids, val, dst, counts []int32) ([]int32, []int32) {
	dst = grow(dst, len(ids))
	if len(ids) == 0 {
		return dst, counts
	}
	lo, hi := val[ids[0]], val[ids[0]]
	for _, id := range ids {
		lo, hi = min(lo, val[id]), max(hi, val[id])
	}
	if int64(hi)-int64(lo) > 4*int64(len(ids))+4096 {
		copy(dst, ids)
		slices.SortStableFunc(dst, func(a, b int32) int { return cmp.Compare(val[a], val[b]) })
		return dst, counts
	}
	counts = grow(counts, int(hi-lo)+2)
	clear(counts)
	for _, id := range ids {
		counts[val[id]-lo+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, id := range ids {
		c := &counts[val[id]-lo]
		dst[*c] = id
		*c++
	}
	return dst, counts
}

// partBase is the first global row of part p.
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
