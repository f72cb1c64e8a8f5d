package ted

import (
	"slices"

	"ned/internal/hungarian"
	"ned/internal/tree"
)

// This file is the profiled verify stage of the filter–verify cascade:
// a TED* computation that consumes the columnar data precompiled into
// tree.Profiles instead of re-deriving it per comparison. The key
// observation is that Algorithm 1's expensive per-level machinery —
// building and sorting children collections, the canonization sort, the
// pre-match histograms — recomputes, pair by pair, exactly the
// information the corpus-interned profiles already hold, as long as the
// level sweep has not yet ADOPTED any label (step 6 rewrites a matched
// node's label to its partner's, diverging the computation's labels
// from the interned shapes).
//
// While every processed level's residual matching was empty ("faithful"
// levels), the canonization label partition at the current level equals
// the interned shape-label partition — by induction: at the deepest
// level every node is a leaf on both sides (one class either way), and
// at each shallower level both partitions group nodes by the multiset
// of their children's classes, which agree by the induction hypothesis.
// So the fast path can, per level:
//
//   - run the equal-label pre-match as one linear merge of the two
//     per-level sorted label runs (precompiled, with the node
//     association preserved in Profile.Perm) instead of canonize +
//     histogram passes — leftovers come out identical to the scalar
//     path's, because both resolve equal-label ties by ascending node
//     index;
//   - treat padded nodes as carrying the interned leaf label (exactly
//     the scalar padLabel: the label of a childless real node), matched
//     against the earliest opposite-side leaf-labeled leftovers;
//   - build the residual cost matrix from the precompiled per-node
//     sorted children-label runs (Profile.Kids) — the symmetric
//     difference of two multisets is invariant under the label
//     bijection, so every entry equals the scalar matrix's.
//
// The first level with a non-empty residue runs its matching on that
// same (bit-identical) cost matrix, performs step-6 adoption on the
// interned labels scattered into the canonize arrays, and hands the
// remaining (shallower) levels to the scalar Computer.level — whose
// results depend only on the label partition, not the label values, so
// the total is bit-identical to DistanceAtMost's: same exact
// distances, same outcome classes, same abort values. The equivalence
// is property-tested over full budget sweeps in profiled_test.go.
//
// Requirements: both profiles from one tree.Interner, and at least one
// of them Resolved — two unresolved profiles carry incomparable
// profile-local labels. Callers that cannot guarantee this get the
// plain oriented path via the guard below.

// DistanceAtMostProfiled is DistanceAtMost for callers that have
// already placed the pair in canonical orientation (by comparing the
// profiles, as internal/ned's verify stage does) and hold both trees'
// compiled profiles. It returns bit-identical results to DistanceAtMost
// — same distances, outcomes, and abort values — while skipping the
// per-level collection building, sorting, and canonization work on
// every level whose residual matching is empty. Falls back to the plain oriented
// path when the profiles are missing columnar data or are mutually
// unresolved.
func (c *Computer) DistanceAtMostProfiled(t1, t2 *tree.Tree, p1, p2 *tree.Profile, budget int) (int, Outcome) {
	if p1 == nil || p2 == nil || p1.KidOff == nil || p2.KidOff == nil ||
		!(p1.Resolved() || p2.Resolved()) {
		var lv1, lv2 []int32
		if p1 != nil {
			lv1 = p1.Levels
		}
		if p2 != nil {
			lv2 = p2.Levels
		}
		return c.runLevels(t1, t2, lv1, lv2, int64(budget), nil)
	}
	bud := int64(budget)
	maxD := len(p1.Levels) - 1
	if h := len(p2.Levels) - 1; h > maxD {
		maxD = h
	}

	if cap(c.pads) < maxD+1 {
		c.pads = make([]int, maxD+1)
	}
	c.pads = c.pads[:maxD+1]
	lv1, lv2 := p1.Levels, p2.Levels
	remPad := 0
	for d := 0; d <= maxD; d++ {
		var n1, n2 int32
		if d < len(lv1) {
			n1 = lv1[d]
		}
		if d < len(lv2) {
			n2 = lv2[d]
		}
		p := int(n1) - int(n2)
		if p < 0 {
			p = -p
		}
		c.pads[d] = p
		remPad += p
	}
	if int64(remPad) > bud {
		return remPad, OutcomePruned
	}

	c.off1p = prefixOffsets(c.off1p, lv1)
	c.off2p = prefixOffsets(c.off2p, lv2)

	// The label padded nodes assume: read it off the resolved side (the
	// sides agree whenever both matter — see Profile.LeafLabel).
	leaf := p1.LeafLabel
	if !p1.Resolved() {
		leaf = p2.LeafLabel
	}

	faithful := true
	total := 0
	prevPad := 0
	for d := maxD; d >= 0; d-- {
		remPad -= c.pads[d]
		slack := bud - int64(total) - int64(c.pads[d]) - int64(remPad)
		solverBudget := int64(hungarian.Inf)
		if bud < int64(Unbounded) && slack < (int64(hungarian.Inf)-int64(prevPad)-1)/2 {
			if sb := 2*slack + int64(prevPad) + 1; sb < solverBudget {
				solverBudget = sb
			}
		}
		var p, m int
		var partial int64
		var ok bool
		if faithful {
			p, m, partial, ok, faithful = c.levelFaithful(t1, t2, p1, p2, leaf, d, prevPad, solverBudget)
		} else {
			p, m, partial, ok = c.level(t1, t2, d, prevPad, solverBudget)
		}
		if !ok {
			mlb := (partial - int64(prevPad)) / 2
			if mlb < 0 {
				mlb = 0
			}
			return total + c.pads[d] + int(mlb) + remPad, OutcomeAborted
		}
		total += p + m
		prevPad = p
		if int64(total)+int64(remPad) > bud {
			return total + remPad, OutcomeAborted
		}
	}
	return total, OutcomeExact
}

// prefixOffsets fills dst with the prefix sums of levels: dst[d] is the
// ID of the first node at depth d (level-order trees).
func prefixOffsets(dst, levels []int32) []int32 {
	if cap(dst) < len(levels) {
		dst = make([]int32, len(levels))
	}
	dst = dst[:len(levels)]
	off := int32(0)
	for d, w := range levels {
		dst[d] = off
		off += w
	}
	return dst
}

// levelFaithful executes one level of Algorithm 1 on precompiled
// profile data, valid while no deeper level has adopted labels. Returns
// the scalar level's exact (padding, matching) — or, on a solver abort,
// the partial matching cost — plus stillFaithful=false once a non-empty
// residue forces adoption (the caller switches to Computer.level for
// the remaining, shallower levels; this level scatters its interned
// labels into the canonize arrays and adopts on them first, so the
// scalar levels see exactly the label partition they would have built
// themselves).
func (c *Computer) levelFaithful(t1, t2 *tree.Tree, p1, p2 *tree.Profile, leaf int32, d, prevPad int, solverBudget int64) (padding, matching int, partial int64, ok, stillFaithful bool) {
	var la, lb, perm1, perm2 []int32
	if d < len(p1.Levels) {
		o, w := c.off1p[d], p1.Levels[d]
		la, perm1 = p1.Labels[o:o+w], p1.Perm[o:o+w]
	}
	if d < len(p2.Levels) {
		o, w := c.off2p[d], p2.Levels[d]
		lb, perm2 = p2.Labels[o:o+w], p2.Perm[o:o+w]
	}
	n1, n2 := len(la), len(lb)
	padding = n1 - n2
	if padding < 0 {
		padding = -padding
	}
	n := n1
	if n2 > n {
		n = n2
	}
	if n == 0 {
		return padding, 0, 0, true, true
	}

	// Equal-label pre-match as one merge of the sorted runs. Leftovers
	// come out (label, node)-ordered; within one label that is ascending
	// node order — the same nodes the scalar histogram stream leaves
	// over (it matches earliest-first too).
	rows, cols := c.rows[:0], c.cols[:0]
	rowLabs, colLabs := c.rowLabs[:0], c.colLabs[:0]
	i, j := 0, 0
	for i < n1 && j < n2 {
		switch {
		case la[i] == lb[j]:
			i++
			j++
		case la[i] < lb[j]:
			rows = append(rows, int(perm1[i]))
			rowLabs = append(rowLabs, la[i])
			i++
		default:
			cols = append(cols, int(perm2[j]))
			colLabs = append(colLabs, lb[j])
			j++
		}
	}
	for ; i < n1; i++ {
		rows = append(rows, int(perm1[i]))
		rowLabs = append(rowLabs, la[i])
	}
	for ; j < n2; j++ {
		cols = append(cols, int(perm2[j]))
		colLabs = append(colLabs, lb[j])
	}

	// Padded nodes carry the leaf label (scalar padLabel: the label of
	// a childless real node; absent any leaf-labeled leftover on the
	// opposite side the pads simply match nothing, exactly like the
	// scalar sentinel). They consume the earliest opposite-side
	// leaf-labeled leftovers — the scalar pre-match streams real nodes
	// before pads, so its surviving leftovers are the latest ones too —
	// and the unconsumed pads become leftovers at the padded indices.
	if n1 != n2 {
		pc := n - n1
		oppLabs, opp := colLabs, cols
		if n2 < n1 {
			pc = n - n2
			oppLabs, opp = rowLabs, rows
		}
		lo, found := slices.BinarySearch(oppLabs, leaf)
		hi := lo
		for hi < len(oppLabs) && oppLabs[hi] == leaf {
			hi++
		}
		take := 0
		if found {
			take = hi - lo
			if take > pc {
				take = pc
			}
			opp = append(opp[:lo], opp[lo+take:]...)
			oppLabs = append(oppLabs[:lo], oppLabs[lo+take:]...)
		}
		if n1 < n2 {
			cols, colLabs = opp, oppLabs
			for r := n1 + take; r < n; r++ {
				rows = append(rows, r)
			}
		} else {
			rows, rowLabs = opp, oppLabs
			for cl := n2 + take; cl < n; cl++ {
				cols = append(cols, cl)
			}
		}
	}
	c.rows, c.cols = rows, cols
	c.rowLabs, c.colLabs = rowLabs, colLabs

	ln := len(rows)
	if ln == 0 {
		return padding, 0, 0, true, true
	}

	// Non-empty residue: solve it on the precompiled children-label
	// runs. Rows and columns in ascending index order — the scalar
	// stream order — so the cost matrix, and with it the solver's
	// matching, abort behavior, and partial costs, are bit-identical.
	slices.Sort(rows)
	slices.Sort(cols)
	if cap(c.cost) < ln*ln {
		c.cost = make([]int64, ln*ln)
	}
	cost := c.cost[:ln*ln]
	// A side shorter than depth d has no offset entry — and no real
	// nodes here (its n is 0), so the guards below never read the base.
	var lo1, lo2 int32
	if d < len(c.off1p) {
		lo1 = c.off1p[d]
	}
	if d < len(c.off2p) {
		lo2 = c.off2p[d]
	}
	for ri, r := range rows {
		var sr []int32
		if r < n1 {
			v := lo1 + int32(r)
			sr = p1.Kids[p1.KidOff[v]:p1.KidOff[v+1]]
		}
		for ci, cl := range cols {
			var sc []int32
			if cl < n2 {
				v := lo2 + int32(cl)
				sc = p2.Kids[p2.KidOff[v]:p2.KidOff[v+1]]
			}
			cost[ri*ln+ci] = symmetricDifference(sr, sc)
		}
	}
	m64, assign, complete := c.solver.SolveAtMost(cost, ln, solverBudget)
	if !complete {
		return padding, 0, m64, false, true
	}

	// The matching adopts labels across sides, so the level's labels
	// diverge from the interned shapes here: scatter this level's
	// interned labels into the canonize arrays, adopt on them (step 6 of
	// the scalar level, verbatim), and hand the shallower levels to the
	// scalar path. Deeper levels' label arrays are never read again.
	if cap(c.lab1) < t1.Size() {
		c.lab1 = make([]int32, t1.Size())
	}
	if cap(c.lab2) < t2.Size() {
		c.lab2 = make([]int32, t2.Size())
	}
	c.lab1 = c.lab1[:t1.Size()]
	c.lab2 = c.lab2[:t2.Size()]
	for i, l := range la {
		c.lab1[lo1+perm1[i]] = l
	}
	for j, l := range lb {
		c.lab2[lo2+perm2[j]] = l
	}
	if n1 < n2 {
		for ri, r := range rows {
			if r < n1 {
				c.lab1[lo1+int32(r)] = c.lab2[lo2+int32(cols[assign[ri]])]
			}
		}
	} else {
		for ri, r := range rows {
			if cl := cols[assign[ri]]; cl < n2 && r < n1 {
				c.lab2[lo2+int32(cl)] = c.lab1[lo1+int32(r)]
			}
		}
	}
	diff := int(m64) - prevPad
	if diff < 0 {
		diff = 0
	}
	return padding, diff / 2, 0, true, false
}
