package ned

import (
	"context"

	"ned/internal/ted"
	"ned/internal/tree"
)

// PrunedTopL answers the same query as TopL but skips full TED*
// evaluations for candidates that provably cannot enter the result: the
// O(height) padding lower bound of ted.LowerBound prunes any candidate
// whose bound already exceeds the current l-th distance. It is the
// cascade scan (scanKNN) at width 1 over unprofiled items — the same
// code NewPrunedLinearBackend and NewLinearBackend serve from, and
// TopLParallel runs at a wider width.
//
// The returned ranking is exact with respect to the full TED* distance:
// every reported neighbor carries its true distance, and the set equals
// TopL's up to equal-distance ties. Stats reports how much work was
// saved.
func PrunedTopL(query Signature, candidates []Signature, l int) ([]Neighbor, PruneStats) {
	res, stats, _ := scanKNN(context.Background(), query.Item(), []sweepPart{{items: nodeSorted(ItemsOf(candidates))}}, l, 1, runSweepers)
	return res, stats
}

// PruneStats reports the work profile of a pruned query.
type PruneStats struct {
	FullEvaluations int // candidates whose TED* computation ran to completion
	PrunedByBound   int // candidates skipped via the padding lower bound
	EarlyExits      int // candidates abandoned mid-TED* once the budget was crossed
}

// add folds one sweeper's share of a query into the query's stats.
func (s *PruneStats) add(o PruneStats) {
	s.FullEvaluations += o.FullEvaluations
	s.PrunedByBound += o.PrunedByBound
	s.EarlyExits += o.EarlyExits
}

// ItemsOf converts precomputed signatures into index items.
func ItemsOf(sigs []Signature) []Item {
	items := make([]Item, len(sigs))
	for i, s := range sigs {
		items[i] = s.Item()
	}
	return items
}

// LowerBound exposes the padding lower bound on NED between two
// signatures: a valid lower bound on Between(a, b).
func LowerBound(a, b Signature) int {
	return ted.LowerBound(a.Tree, b.Tree)
}

// PrefixDistance evaluates NED on the depth-truncated signatures — the
// §10 lower-bound heuristic. With kPrefix >= both tree heights it equals
// Between(a, b).
func PrefixDistance(a, b Signature, kPrefix int) int {
	ta := truncated(a.Tree, kPrefix)
	tb := truncated(b.Tree, kPrefix)
	return ted.Distance(ta, tb)
}

func truncated(t *tree.Tree, k int) *tree.Tree {
	if k >= t.Height() {
		return t
	}
	return t.Truncate(k)
}
