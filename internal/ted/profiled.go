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
// A profile stores no columns for its deepest level (tree.Profile): on
// it the fast path reads a leaf run of width Levels[h] in node order,
// pre-matched against the other side's sorted run by a binary search
// for that run's leaf block, and a node on level h-1 has the implicit
// kid run of its child count in leaves, whose symmetric difference with
// a sorted run is a count (runDifference). The values are the ones the
// stored columns gave.
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
		c.work.Levels++
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
	s1, s2 := profileLevel(p1, c.off1p, d), profileLevel(p2, c.off2p, d)
	la, lb, perm1, perm2 := s1.labels, s2.labels, s1.perm, s2.perm
	n1, n2 := s1.width, s2.width
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

	// Equal-label pre-match. Leftovers come out (label, node)-ordered;
	// within one label that is ascending node order — the same nodes the
	// scalar histogram stream leaves over (it matches earliest-first
	// too).
	rows, cols := c.rows[:0], c.cols[:0]
	rowLabs, colLabs := c.rowLabs[:0], c.colLabs[:0]
	switch {
	case !s1.implicit && !s2.implicit:
		// One merge of the sorted runs.
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
		rows, rowLabs = appendRun(rows, rowLabs, la[i:], perm1[i:])
		cols, colLabs = appendRun(cols, colLabs, lb[j:], perm2[j:])
	case s1.implicit && s2.implicit:
		// Two leaf runs in node order: the merge pairs their heads.
		m := 0
		if s1.leaf == s2.leaf {
			m = min(n1, n2)
		}
		rows, rowLabs = appendLeafRun(rows, rowLabs, m, n1, s1.leaf)
		cols, colLabs = appendLeafRun(cols, colLabs, m, n2, s2.leaf)
	case s1.implicit:
		// The merge pairs the leaf run's head with the other run's leaf
		// block: what is left is the run's tail and the other run minus
		// the block's head.
		lo, hi := leafBlock(lb, s1.leaf)
		m := min(n1, hi-lo)
		rows, rowLabs = appendLeafRun(rows, rowLabs, m, n1, s1.leaf)
		cols, colLabs = appendRun(cols, colLabs, lb[:lo], perm2[:lo])
		cols, colLabs = appendRun(cols, colLabs, lb[lo+m:], perm2[lo+m:])
	default:
		lo, hi := leafBlock(la, s2.leaf)
		m := min(n2, hi-lo)
		rows, rowLabs = appendRun(rows, rowLabs, la[:lo], perm1[:lo])
		rows, rowLabs = appendRun(rows, rowLabs, la[lo+m:], perm1[lo+m:])
		cols, colLabs = appendLeafRun(cols, colLabs, m, n2, s2.leaf)
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
		lo, hi := leafBlock(oppLabs, leaf)
		take := min(hi-lo, pc)
		opp = append(opp[:lo], opp[lo+take:]...)
		oppLabs = append(oppLabs[:lo], oppLabs[lo+take:]...)
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
	for ri, r := range rows {
		var kr kidRun
		if r < n1 {
			kr = s1.kids(r)
		}
		for ci, cl := range cols {
			var kc kidRun
			if cl < n2 {
				kc = s2.kids(cl)
			}
			cost[ri*ln+ci] = runDifference(kr, kc)
		}
	}
	c.work.HungarianCells += int64(ln) * int64(ln)
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
	s1.scatter(c.lab1)
	s2.scatter(c.lab2)
	lo1, lo2 := s1.lo, s2.lo
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

// levelSide is one profile's view of level d. On the profile's implicit
// deepest level (implicit) labels and perm are nil: every node there
// carries leaf, in node order.
type levelSide struct {
	p            *tree.Profile
	labels, perm []int32
	lo           int32 // the level's first node ID
	width        int
	d            int
	implicit     bool
	leaf         int32
}

// profileLevel returns p's level d; off holds p's level offsets. A level
// below p's deepest is empty.
func profileLevel(p *tree.Profile, off []int32, d int) levelSide {
	s := levelSide{p: p, d: d, leaf: p.LeafLabel}
	if d >= len(p.Levels) {
		return s
	}
	s.lo, s.width = off[d], int(p.Levels[d])
	if s.implicit = d == p.Height(); !s.implicit {
		s.labels, s.perm = p.Labels[s.lo:s.lo+p.Levels[d]], p.Perm[s.lo:s.lo+p.Levels[d]]
	}
	return s
}

// kids returns the children-label run of the level's i-th node: stored
// above level h-1, leaves on it, none on the deepest level.
func (s *levelSide) kids(i int) kidRun {
	h := s.p.Height()
	if s.d == h {
		return kidRun{}
	}
	v := s.lo + int32(i)
	lo, hi := s.p.KidOff[v], s.p.KidOff[v+1]
	if s.d == h-1 {
		return kidRun{leaves: hi - lo, leaf: s.leaf}
	}
	return kidRun{labels: s.p.Kids[lo:hi]}
}

// scatter writes the level's labels into lab at their node IDs.
func (s *levelSide) scatter(lab []int32) {
	if s.implicit {
		for i := range int32(s.width) {
			lab[s.lo+i] = s.leaf
		}
		return
	}
	for i, l := range s.labels {
		lab[s.lo+s.perm[i]] = l
	}
}

// appendRun appends leftover labels to labs and their node indices,
// perm, to idx.
func appendRun(idx []int, labs []int32, labels, perm []int32) ([]int, []int32) {
	for i, l := range labels {
		idx = append(idx, int(perm[i]))
		labs = append(labs, l)
	}
	return idx, labs
}

// appendLeafRun appends the node indices [from, to) of a leaf run to idx,
// and leaf once per index to labs.
func appendLeafRun(idx []int, labs []int32, from, to int, leaf int32) ([]int, []int32) {
	for i := from; i < to; i++ {
		idx = append(idx, i)
		labs = append(labs, leaf)
	}
	return idx, labs
}

// leafBlock returns the half-open range of the sorted run labels that
// holds leaf.
func leafBlock(labels []int32, leaf int32) (lo, hi int) {
	lo, _ = slices.BinarySearch(labels, leaf)
	hi = lo
	for hi < len(labels) && labels[hi] == leaf {
		hi++
	}
	return lo, hi
}

// kidRun is a sorted children-label run: labels, or — for a node on a
// profile's level h-1, whose children sit on the implicit deepest level
// — leaves copies of leaf.
type kidRun struct {
	labels []int32
	leaves int32
	leaf   int32
}

// runDifference is symmetricDifference of the two runs, without
// materializing a leaf run: k copies of a label against a run holding c
// of them differ in |run| + k − 2·min(c, k) elements.
func runDifference(a, b kidRun) int64 {
	switch {
	case a.leaves == 0 && b.leaves == 0:
		return symmetricDifference(a.labels, b.labels)
	case a.leaves > 0 && b.leaves > 0:
		if a.leaf != b.leaf {
			return int64(a.leaves) + int64(b.leaves)
		}
		return int64(max(a.leaves-b.leaves, b.leaves-a.leaves))
	case b.leaves > 0:
		a, b = b, a
	}
	lo, hi := leafBlock(b.labels, a.leaf)
	return int64(len(b.labels)) + int64(a.leaves) - 2*int64(min(int32(hi-lo), a.leaves))
}
