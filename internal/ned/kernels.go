package ned

// This file holds the block kernels of the filter cascade: tight loops
// that sweep one tier across a whole candidate block laid out as a
// struct-of-arrays profile arena (block.go), writing per-slot bound
// values or a survivor bitmap. Each kernel reads only contiguous int32
// arrays — no *Item or *Profile is dereferenced — so the hot loops stay
// branch-light and bounds-check-hoisted. Every tier kernel is
// decision-identical to its scalar counterpart in cascade.go
// (kernels_test.go pins the equivalence bit for bit); see the
// block-vs-scalar contract in cascade.go.

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
// i with level-size run levels[levOff[i]:levOff[i+1]], dst[i] +=
// Σ_d | qLevels[d] − run[d] | with missing depths counting as empty —
// exactly ted.PaddingBound read off the arena's CSR level storage.
func paddingTierBlock(qLevels, levOff, levels, dst []int32) {
	for i := range dst {
		run := levels[levOff[i]:levOff[i+1]]
		n := len(run)
		if len(qLevels) < n {
			n = len(qLevels)
		}
		q := qLevels[:n]
		var sum int32
		for d, m := range run[:n] {
			diff := q[d] - m
			if diff < 0 {
				diff = -diff
			}
			sum += diff
		}
		// Whichever side is deeper pays its unmatched levels whole.
		for _, m := range run[n:] {
			sum += m
		}
		for _, m := range qLevels[n:] {
			sum += m
		}
		dst[i] += sum
	}
}

// tierFilterBlock folds the size and padding tiers at threshold t into
// a survivor bitmap: bit i is set iff padB[i] <= t (which subsumes
// sizeB[i] <= t by the dominance chain). The returned counts attribute
// every dismissed slot to the cheapest tier that already decides it,
// mirroring candBound.tier.
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

// blockOrder returns the slots in ascending (padding bound, node)
// order — identical to cascadeOrder's comparison sort — via a counting
// sort over the bound values: one pass to histogram, one stable pass
// in byNode order to place. NED bounds are small integers, so the
// count array is tiny; a degenerate corpus whose bound range dwarfs
// the slot count falls back to the comparison sort.
func blockOrder(padB []int32, byNode []int32) []int32 {
	n := len(padB)
	order := make([]int32, n)
	var maxPad int32
	for _, p := range padB {
		if p > maxPad {
			maxPad = p
		}
	}
	if int(maxPad) > 4*n+4096 {
		copy(order, byNode)
		insertionSortByPad(order, padB)
		return order
	}
	counts := make([]int32, int(maxPad)+2)
	for _, p := range padB {
		counts[p+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, j := range byNode {
		p := padB[j]
		order[counts[p]] = j
		counts[p]++
	}
	return order
}

// insertionSortByPad stably sorts order (pre-sorted by node) by padding
// bound — the rare fallback for degenerate bound ranges. Stability
// preserves the node tie-break.
func insertionSortByPad(order []int32, padB []int32) {
	for i := 1; i < len(order); i++ {
		j, p := order[i], padB[order[i]]
		k := i - 1
		for k >= 0 && padB[order[k]] > p {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
}
