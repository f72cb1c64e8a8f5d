package ted

import "ned/internal/tree"

// LowerBound returns a cheap lower bound on the TED* distance: the total
// padding cost Σ_i P_i = Σ_i | |L_i(T1)| − |L_i(T2)| |. Every edit script
// must pay each level's size difference in leaf insertions or deletions
// (no operation changes two levels' sizes at once), and matching costs
// are non-negative, so the bound is valid for the Definition-3 optimum
// and a fortiori for the Algorithm-1 value.
//
// The bound costs O(height) given the trees' level indexes — no
// canonization or matching — which makes it suitable for candidate
// pruning in similarity queries (see internal/ned's pruned search).
func LowerBound(t1, t2 *tree.Tree) int {
	maxD := t1.Height()
	if h := t2.Height(); h > maxD {
		maxD = h
	}
	lb := 0
	for d := 0; d <= maxD; d++ {
		diff := t1.LevelSize(d) - t2.LevelSize(d)
		if diff < 0 {
			diff = -diff
		}
		lb += diff
	}
	return lb
}
