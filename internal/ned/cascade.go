package ned

import (
	"fmt"

	"ned/internal/ted"
	"ned/internal/tree"
)

// This file is the filter–verify cascade every index backend evaluates
// candidates through: a monotone chain of lower bounds —
//
//	size |n1−n2|  <=  padding Σ|L_d gaps|  <=  degree sequence  <=  TED*
//
// — each tier read off the columns Profiles (internal/tree) compile to,
// once, at extraction, insert, or snapshot-load time, so the per-
// candidate filter costs a few int32 scans instead of tree walks and
// string compares. A candidate is dismissed at the first tier exceeding
// the search threshold; survivors reach the verify stage, which builds
// an indexed candidate's tree and profile back from its stored row
// (profileBlock.candidate), then takes an interned-key isomorphism fast
// path (equal AHU keys mean distance 0 without any
// matching work), profile-based canonical pair orientation, and finally
// the budgeted TED*. Pruning never changes results — every tier
// lower-bounds the exact distance (proofs in internal/ted/profile.go).
//
// Profiles are a precondition: every indexed or swept item carries them,
// compiled against its index's one dictionary, and every query carries
// them too (read-only for queries, see ProfileQueryItem). So each tier
// has one form per layout. Tiers 0–1 are the block kernels
// (kernels.go), which sweep a range of a candidate block's rows, laid
// out as a struct-of-arrays profile arena in size-key order (block.go);
// tier 2 is ted.DegreeExcessRuns on top of the padding bound, which the
// scans read from the block's degree column (profileBlock.
// degreeTierPrunes) and the tree backends through the candidate's item
// (degreeTierPrunes); and every survivor reaches one verify stage,
// verifyDistanceAtMost.
//
// A scan bounds only a size window of each block: the rows whose size
// key is within w of the query's, one contiguous range, since the size
// key lower-bounds the size tier. Every row outside it has a size bound,
// hence every bound, above w, and is dismissed by size in bulk, never
// bounded. The range scan (scanRange) takes w = r and runs the three
// tiers in order over the window at its fixed radius. The KNN sweep
// (scanKNN) runs them as a multi-step search: tiers 0–1 over the window
// (w = 15 to start), tier 2 lazily in padding order, and the verify
// stage in ascending order of the degree bound, with w+1 standing in for
// every bound outside the window. When the window's order runs out
// below the l-th distance the sweep widens it (open, widen): to the l-th
// distance once it is finite, doubling before, bounding only the new
// rows and merging them into the order. So with one sweeper it verifies
// only candidates whose degree bound is at most the final l-th
// distance, as a sweep that bounds every row does. The VP and BK trees
// visit candidates one at a time in an order their geometry dictates,
// so they gate each budgeted evaluation with tier 2 alone
// (gatedDistanceAtMost), the one caller that computes the padding bound
// itself: tier 2 opens with it, and it dominates the size bound, so the
// gate prunes exactly the candidates the three tiers would.

// cascadeTier names the filter tier that dismissed a candidate; the
// counters report the per-tier breakdown.
type cascadeTier uint8

const (
	tierSize cascadeTier = iota
	tierPadding
	tierDegree
)

// ProfileItem compiles its signature trees into Profiles against the
// corpus dictionary (idempotent: trees already profiled are kept).
func ProfileItem(it *Item, dict *tree.Interner) {
	if it.Out != nil && it.OutP == nil {
		it.OutP = dict.ProfileCached(it.Out)
	}
	if it.In != nil && it.InP == nil {
		it.InP = dict.ProfileCached(it.In)
	}
}

// ProfileItems compiles profiles for a batch of items in parallel; the
// dictionary is safe for concurrent interning.
func ProfileItems(items []Item, dict *tree.Interner, workers int) {
	parallelFor(len(items), BatchOptions{Workers: workers}.workers(), func(i int) {
		ProfileItem(&items[i], dict)
	})
}

// ProfileQueryItem compiles a query item's profiles read-only: shapes
// the corpus has never indexed get profile-local labels instead of
// growing the corpus dictionary, so an arbitrary query stream costs
// no corpus memory and no dictionary write lock. Query-only — a
// read-only profile must never be indexed (ProfileItem for that).
func ProfileQueryItem(it *Item, dict *tree.Interner) {
	if it.Out != nil && it.OutP == nil {
		it.OutP = dict.ProfileQueryCached(it.Out)
	}
	if it.In != nil && it.InP == nil {
		it.InP = dict.ProfileQueryCached(it.In)
	}
}

// mustProfiled panics unless it carries a profile for every tree it
// has. Profiles are a precondition of indexing and of querying, so a
// missing one is a programming error, never a slower path.
func mustProfiled(it *Item) {
	if it.OutP == nil || (it.In != nil && it.InP == nil) {
		panic(fmt.Sprintf("ned: node %d is unprofiled: profile indexed items with ProfileItem and queries with ProfileQueryItem", it.Node))
	}
}

// degreeTierPrunes runs tier 2, the degree-sequence bound, at threshold
// t: pad, the pair's padding bound summed over its out/in tree pairs,
// plus ted.DegreeExcess of the out-pair and then of the in-pair, each
// under whatever the sum so far left of t. This is the item form, with
// the candidate's profiles read through its item: the tree backends'
// gate. The scans read the same runs from their block's degree column
// (profileBlock.degreeTierPrunes), starting from the kernel's padding
// bound for the candidate's row.
func degreeTierPrunes(q, it Item, pad, t int) (bound int, pruned bool) {
	bound = pad
	if bound <= t {
		bound += ted.DegreeExcess(q.OutP, it.OutP, t-bound)
	}
	if bound <= t && q.In != nil && it.In != nil {
		bound += ted.DegreeExcess(q.InP, it.InP, t-bound)
	}
	return bound, bound > t
}

// paddingBound is the pair's padding bound summed over its out/in tree
// pairs: what the block kernel computes for a scanned candidate.
func paddingBound(q, it Item) int {
	pad := ted.PaddingBound(q.OutP, it.OutP)
	if q.In != nil && it.In != nil {
		pad += ted.PaddingBound(q.InP, it.InP)
	}
	return pad
}

// gatedDistanceAtMost is the tree backends' per-candidate evaluation:
// under a finite budget tier 2 gates the verify stage, which otherwise
// runs alone. Counter accounting happens here; callers must not observe
// again. OutcomeExact means d is the exact distance; anything else means
// both d and the true distance exceed the budget (the VP and BK trees
// never read d then).
func gatedDistanceAtMost(c *ted.Computer, q, it Item, budget int, cs *counterSet) (int, ted.Outcome) {
	if budget != ted.Unbounded {
		if dg, pruned := degreeTierPrunes(q, it, paddingBound(q, it), budget); pruned {
			cs.cascadePrune(tierDegree)
			return dg, ted.OutcomePruned
		}
	}
	return verifyDistanceAtMost(c, q, it, budget, cs)
}

// verifyDistanceAtMost is the verify stage: the budgeted NED of the pair
// — out-tree first, the in-tree under whatever budget is left — with the
// profile fast paths, recording the outcome on cs. OutcomeExact means d
// is ItemDistance(q, it); any other outcome means d and the true
// distance both exceed the budget.
func verifyDistanceAtMost(c *ted.Computer, q, it Item, budget int, cs *counterSet) (int, ted.Outcome) {
	c.TakeWork()
	defer func() { cs.verifyWork(c.TakeWork()) }()
	d, out := treeDistanceAtMost(c, q.Out, it.Out, q.OutP, it.OutP, budget)
	if out != ted.OutcomeExact {
		cs.observe(out)
		return d, out
	}
	if q.In != nil && it.In != nil {
		rem := ted.Unbounded
		if budget != ted.Unbounded {
			rem = budget - d
		}
		d2, out2 := treeDistanceAtMost(c, q.In, it.In, q.InP, it.InP, rem)
		if out2 == ted.OutcomePruned {
			// The out-tree comparison already did matching work, so the
			// pair as a whole was abandoned mid-computation.
			out2 = ted.OutcomeAborted
		}
		cs.observe(out2)
		return d + d2, out2
	}
	cs.observe(out)
	return d, out
}

// treeDistanceAtMost is the budgeted TED* on one tree pair, taking
// every profile shortcut available: equal interned AHU keys mean the
// trees are isomorphic — distance 0, no matching work at all — and
// otherwise the canonical pair orientation is decided from the profiles
// (size, height) with the AHU encodings breaking the rare full tie,
// bit-compatible with ted's orient. The computation itself takes the profiled
// faithful-level fast path (ted.Computer.DistanceAtMostProfiled):
// per-level sorted label runs and per-node sorted children collections
// come off the profiles instead of being rebuilt and re-sorted per
// pair, with bit-identical results.
func treeDistanceAtMost(c *ted.Computer, t1, t2 *tree.Tree, p1, p2 *tree.Profile, budget int) (int, ted.Outcome) {
	if p1.Canon == p2.Canon {
		return 0, ted.OutcomeExact
	}
	if profileSwap(t1, t2, p1, p2) {
		t1, t2, p1, p2 = t2, t1, p2, p1
	}
	return c.DistanceAtMostProfiled(t1, t2, p1, p2, budget)
}

// profileSwap mirrors ted's canonical pair orientation — size, then
// height, then AHU encoding — true when the pair must swap; t1 is the
// query's tree and t2 the candidate's. The size and height tiers come
// off the profiles; only a full tie, at most a few percent of verifies,
// derives encodings: the query's cached on its tree, the candidate's
// afresh, so comparing never grows a corpus row.
func profileSwap(t1, t2 *tree.Tree, p1, p2 *tree.Profile) bool {
	switch {
	case p1.Size != p2.Size:
		return p1.Size > p2.Size
	case len(p1.Levels) != len(p2.Levels):
		return len(p1.Levels) > len(p2.Levels)
	default:
		return tree.Canonical(t1) > tree.CanonicalUncached(t2)
	}
}

// open starts a query's sweep over parts: every part's window is empty,
// at the query's size key, and so is the evaluation order. Each part's
// live candidates are counted on its counter set; their total comes
// back.
func (sc *sweepScratch) open(q Item, parts []sweepPart) int {
	mustProfiled(&q)
	sc.ends, sc.wins, sc.order = sc.ends[:0], sc.wins[:0], sc.order[:0]
	total, live := int32(0), 0
	for _, pt := range parts {
		total += int32(pt.blk.n)
		at, _ := pt.blk.window(q, 0)
		sc.ends, sc.wins = append(sc.ends, total), append(sc.wins, rowSpan{at, at})
		n := pt.blk.n - len(pt.dead)
		pt.cs.blockSweep(n)
		live += n
	}
	sc.sizeB, sc.padB = grow(sc.sizeB, int(total)), grow(sc.padB, int(total))
	return live
}

// widen grows every part's window to the rows whose size key is within
// w of the query's (profileBlock.window), bounds the rows it adds with
// the block kernels, and merges the live ones, ordered by padding bound
// (a counting sort), into the unclaimed evaluation order from position
// next on; the claimed positions before next do not move. Ties keep the
// order they had: rows already waiting first, then new rows part after
// part, by row within a part. It reports whether every window now holds
// its whole part.
func (sc *sweepScratch) widen(q Item, parts []sweepPart, w, next int) (full bool) {
	fresh := sc.fresh[:0]
	full = true
	for p := range parts {
		pt, win, base := &parts[p], &sc.wins[p], partBase(sc.ends, p)
		lo, hi := pt.blk.window(q, w)
		for _, span := range [2]rowSpan{{lo, win.lo}, {win.hi, hi}} {
			if span.lo >= span.hi {
				continue
			}
			pt.blk.bounds(q, span.lo, span.hi, sc.sizeB[base+span.lo:], sc.padB[base+span.lo:])
			pt.cs.rowsBound(int(span.hi - span.lo))
			dead := deadWithin(pt.dead, span.lo, span.hi)
			for r := span.lo; r < span.hi; r++ {
				if len(dead) > 0 && dead[0] == r {
					dead = dead[1:]
					continue
				}
				fresh = append(fresh, base+r)
			}
		}
		win.lo, win.hi = min(win.lo, lo), max(win.hi, hi)
		full = full && win.lo == 0 && int(win.hi) == pt.blk.n
	}
	sc.fresh = fresh
	sc.sorted, sc.counts = orderBy(fresh, sc.padB, sc.sorted, sc.counts)
	waiting, sorted, padB := sc.order[next:], sc.sorted, sc.padB
	merged := sc.merged[:0]
	for len(waiting) > 0 && len(sorted) > 0 {
		if padB[sorted[0]] < padB[waiting[0]] {
			merged, sorted = append(merged, sorted[0]), sorted[1:]
		} else {
			merged, waiting = append(merged, waiting[0]), waiting[1:]
		}
	}
	merged = append(append(merged, waiting...), sorted...)
	sc.order, sc.merged = append(sc.order[:next], merged...), merged
	return full
}
