package ned

import (
	"context"

	"ned/internal/ted"
	"ned/internal/tree"
)

// PrunedTopL answers the same query as TopL but skips full TED*
// evaluations for candidates that provably cannot enter the result: the
// cascade's lower bounds prune any candidate whose bound already
// exceeds the current l-th distance. It is the cascade scan (scanKNN) at
// width 1 over the candidates profiled against a fresh dictionary
// (ProfileSignatures) — the code every scan backend serves from, which
// TopLParallel runs at a wider width.
//
// The returned ranking is exact with respect to the full TED* distance:
// every reported neighbor carries its true distance, and the set equals
// TopL's. Stats reports how much work was saved.
func PrunedTopL(query Signature, candidates []Signature, l int) ([]Neighbor, PruneStats) {
	return signatureTopL(query, candidates, l, 1)
}

// signatureTopL is the top-l sweep over signatures at the given width,
// behind PrunedTopL and TopLParallel.
func signatureTopL(query Signature, candidates []Signature, l, width int) ([]Neighbor, PruneStats) {
	items, dict := ProfileSignatures(candidates)
	res, stats, _ := scanKNN(context.Background(), QueryItem(query, dict), []sweepPart{newSweepPart(items)}, l, width, runSweepers)
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

// ProfileSignatures is how a signature-level entry point (the VP and
// BK indexes, PrunedTopL, TopLParallel, Hausdorff) gets items: one per
// signature, profiled against a fresh dictionary, which it returns for
// the queries (QueryItem).
func ProfileSignatures(sigs []Signature) ([]Item, *tree.Interner) {
	items := make([]Item, len(sigs))
	for i, s := range sigs {
		items[i] = s.Item()
	}
	dict := tree.NewInterner()
	ProfileItems(items, dict, 0)
	return items, dict
}

// QueryItem is a query signature profiled read-only against the
// dictionary of the items it is compared with.
func QueryItem(s Signature, dict *tree.Interner) Item {
	q := s.Item()
	ProfileQueryItem(&q, dict)
	return q
}

// newSweepPart is a one-part sweep over items' rows, with no dead rows
// and no counters.
func newSweepPart(items []Item) sweepPart {
	return sweepPart{blk: blockOf(RowsOf(items))}
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
