package ted

import "ned/internal/tree"

// This file is the bound side of the filter–verify cascade: lower
// bounds on TED* computed purely from precompiled tree.Profiles — no
// tree traversal, no canonization, no matching. The three tiers form a
// provable dominance chain
//
//	SizeBound <= PaddingBound <= DegreeBound <= TED*
//
// so an index can evaluate them cheapest-first and stop at the first
// tier that exceeds its search threshold, while pruning stays exact:
// every tier lower-bounds the value Algorithm 1 computes (the distance
// the indexes serve).
//
// Soundness arguments, per tier:
//
//   - Size: each insert or delete changes the node count by exactly 1
//     and moves change nothing, so |n1-n2| ops are unavoidable.
//   - Padding: each insert or delete changes exactly one level's size
//     by 1 (no operation changes two levels' sizes at once), so the
//     per-level size gaps must be paid separately: Σ_d P_d with P_d =
//     | |L_d(T1)| − |L_d(T2)| |. Summing the per-level gaps dominates
//     the single global gap, hence Size <= Padding.
//   - Degree sequences: Algorithm 1 charges level d the padding P_d
//     plus a move cost M_d = (m(G²_d) − P_{d+1}) / 2, where m(G²_d) is
//     the weight of a perfect matching between the two (padded) levels
//     under the weights |S(x) △ S(y)| over children-label multisets.
//     A symmetric difference is never smaller than the difference of
//     the two sizes, |S(x)| is x's child count (a padded node's is 0),
//     and the cheapest perfect matching under |a − b| costs pairs the
//     two sequences in sorted order, so with a_(i), b_(i) the two
//     levels' ascending child counts, zero-padded to equal width,
//
//	m(G²_d) >= Δ_d = Σ_i |a_(i) − b_(i)| >= |Σ_i a_(i) − Σ_i b_(i)| = P_{d+1}
//
//     and Δ_d ≡ P_{d+1} (mod 2). Each level therefore costs at least
//     P_d + (Δ_d − P_{d+1}) / 2, a non-negative integer that adds to
//     the padding bound term by term, hence Padding <= Degree. The
//     argument uses no property of the matching Algorithm 1 picks
//     beyond its being a perfect matching, and child counts do not
//     change when a level's nodes adopt their partners' labels, so the
//     bound holds for Algorithm 1's value under ANY matching choice
//     and any re-canonization — the tie artifacts of the faithfulness
//     note (tedstar.go) cannot push the served distance below it.
//
// LabelBound (the per-level label-multiset bound, max_d ceil(D_d / 4)
// against the padding bound) stays as a library function but is no
// longer a cascade tier: it is argued against the Definition-3 optimum
// (one edit operation perturbs a level's subtree-shape multiset by at
// most 4 elements: an insert or delete adds or removes one leaf label
// and relabels one ancestor per shallower level, a move relabels the
// old and new parent chains), which Algorithm 1's value never
// undershoots, and it dismissed nothing the padding tier admitted on
// any measured workload.
//
// PaddingBound is bit-identical to the tree-walking LowerBound on the
// profiled trees (property-tested in profile_test.go); profiles simply
// make it two flat []int32 scans.

// SizeBound is tier 0 of the cascade: |size(T1) − size(T2)| from the
// precompiled profiles. Dominated by PaddingBound; costs two loads.
func SizeBound(a, b *tree.Profile) int {
	d := int(a.Size) - int(b.Size)
	if d < 0 {
		d = -d
	}
	return d
}

// PaddingBound is tier 1 of the cascade: the total padding cost
// Σ_d | |L_d(T1)| − |L_d(T2)| |, identical to LowerBound but read off
// the two precompiled level-size vectors in a single loop.
func PaddingBound(a, b *tree.Profile) int {
	la, lb := a.Levels, b.Levels
	if len(la) < len(lb) {
		la, lb = lb, la
	}
	bound := 0
	for d, n := range la {
		var m int32
		if d < len(lb) {
			m = lb[d]
		}
		diff := int(n) - int(m)
		if diff < 0 {
			diff = -diff
		}
		bound += diff
	}
	return bound
}

// DegreeBound is tier 2 of the cascade: Σ_d P_d + Σ_d (Δ_d − P_{d+1})/2,
// the padding bound plus what each level's sorted child-count sequences
// (tree.Profile.Degs) prove its matching must cost in moves — PaddingBound
// plus DegreeExcess. Every term is non-negative, so the running total is
// itself a lower bound: the sum stops at the first level that carries it
// past t and returns the partial value (> t); at t = Unbounded the full
// bound comes back. Label-free: profiles of different Interners, or with
// unresolved query labels, compare fine.
func DegreeBound(a, b *tree.Profile, t int) int {
	bound := PaddingBound(a, b)
	if bound > t {
		return bound
	}
	return bound + DegreeExcess(a, b, t-bound)
}

// DegreeExcess is what DegreeBound adds to the padding bound,
// Σ_d (Δ_d − P_{d+1})/2, for a caller that already holds the padding
// bound (the cascade's block kernel computes it for every candidate).
// It stops like DegreeBound: at the first level that carries the sum
// past t it returns the partial value (> t). It is DegreeExcessRuns
// over the two profiles' level widths and inner degree runs.
func DegreeExcess(a, b *tree.Profile, t int) int {
	return DegreeExcessRuns(a.Levels, a.InnerDegs(), b.Levels, b.InnerDegs(), t)
}

// DegreeExcessRuns is the one implementation of DegreeExcess, over raw
// columns: la and lb are two trees' level widths (height+1 entries
// each), da and db their child counts of levels 1…h−1, sorted within
// each level and laid out level after level (tree.Profile.InnerDegs, or
// a row of a tree.ProfileArena at the arena's degree width).
func DegreeExcessRuns[D tree.Degree](la, da, lb []int32, db []D, t int) int {
	// Only levels with children on both sides can add to the padding
	// bound. Level 0 is two roots, whose child-count gap IS P_1; from
	// the shallower tree's deepest level down, one side is all leaves
	// or padding, so Δ_d is the other side's child total, which IS
	// P_{d+1}.
	excess := 0
	var offA, offB int32
	for d := 1; d+1 < min(len(la), len(lb)); d++ {
		ra := da[offA : offA+la[d]]
		rb := db[offB : offB+lb[d]]
		offA += la[d]
		offB += lb[d]
		var delta, net int32
		if len(ra) >= len(rb) {
			delta, net = levelExcess(ra, rb)
		} else {
			delta, net = levelExcess(rb, ra)
		}
		if excess += int(delta-net) / 2; excess > t {
			return excess
		}
	}
	return excess
}

// levelExcess is one level's Δ_d and P_{d+1} from its two sorted runs
// of child counts, wide no shorter than narrow.
func levelExcess[A, B tree.Degree](wide []A, narrow []B) (delta, net int32) {
	// Zeros pad the narrower run at its low end: the wider run's
	// surplus smallest counts pair with them.
	k := len(wide) - len(narrow)
	for _, x := range wide[:k] {
		delta += int32(x)
	}
	net = delta // Σ wide − Σ narrow, whose magnitude is P_{d+1}
	for i, x := range wide[k:] {
		diff := int32(x) - int32(narrow[i])
		net += diff
		if diff < 0 {
			diff = -diff
		}
		delta += diff
	}
	if net < 0 {
		net = -net
	}
	return delta, net
}

// DegreeExcessRow is DegreeExcessRuns against row i of a, whose degree
// runs are at a's width.
func DegreeExcessRow(la, da []int32, a *tree.ProfileArena, i, t int) int {
	lb := a.RowLevels(i)
	lo, hi := a.DegOff[i], a.DegOff[i+1]
	switch a.Degs.Width {
	case 1:
		return DegreeExcessRuns(la, da, lb, a.Degs.U8[lo:hi], t)
	case 2:
		return DegreeExcessRuns(la, da, lb, a.Degs.U16[lo:hi], t)
	}
	return DegreeExcessRuns(la, da, lb, a.Degs.I32[lo:hi], t)
}

// LevelLabelTerm is the label-multiset half of LabelBound: max over depths
// of ceil(D_d / 4), with D_d the symmetric difference between the two
// levels' interned subtree-label multisets (a linear merge of two
// sorted int32 runs per level). On its own it neither dominates nor is
// dominated by PaddingBound; LabelBound combines the two. Both
// profiles must come from the same tree.Interner.
func LevelLabelTerm(a, b *tree.Profile) int {
	maxDiff := int64(0)
	var offA, offB int32
	for d := 0; d < len(a.Levels) || d < len(b.Levels); d++ {
		ra, rb := levelRun(a, &offA, d), levelRun(b, &offB, d)
		if diff := runDifference(ra, rb); diff > maxDiff {
			maxDiff = diff
		}
	}
	return int((maxDiff + 3) / 4)
}

// levelRun returns p's level-d labels as a run — the implicit deepest
// level as its width in leaves — and advances *off past the level.
func levelRun(p *tree.Profile, off *int32, d int) kidRun {
	switch {
	case d > p.Height():
		return kidRun{}
	case d == p.Height():
		return kidRun{leaves: p.Levels[d], leaf: p.LeafLabel}
	}
	run := kidRun{labels: p.Labels[*off : *off+p.Levels[d]]}
	*off += p.Levels[d]
	return run
}

// LabelBound is max(PaddingBound, LevelLabelTerm): a lower bound on the
// Definition-3 optimum that dominates the padding bound. Not a cascade
// tier (see the file comment); kept for callers that want it.
func LabelBound(a, b *tree.Profile) int {
	p := PaddingBound(a, b)
	if t := LevelLabelTerm(a, b); t > p {
		return t
	}
	return p
}
