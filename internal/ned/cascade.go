package ned

import (
	"context"

	"ned/internal/ted"
	"ned/internal/tree"
)

// This file is the filter–verify cascade every index backend evaluates
// candidates through: a monotone chain of lower bounds —
//
//	size |n1−n2|  <=  padding Σ|L_d gaps|  <=  degree sequence  <=  TED*
//
// — each tier read off flat per-item Profiles (internal/tree) compiled
// once at extraction, insert, or snapshot-load time, so the per-
// candidate filter costs a few int32 scans instead of tree walks and
// string compares. A candidate is dismissed at the first tier exceeding
// the search threshold; survivors reach the verify stage: an interned-
// key isomorphism fast path (equal AHU keys mean distance 0 without any
// matching work), profile-based canonical pair orientation, and finally
// the budgeted TED* of PR 2. Pruning never changes results — every tier
// lower-bounds the exact distance (proofs in internal/ted/profile.go),
// and the verify stage returns exactly what the unprofiled path would.
//
// Items without profiles (direct backend construction, legacy helpers)
// fall back to the PR-2 behavior: tree-walk bounds and string-compare
// orientation. Answers are identical either way; only the work differs.
//
// Block-vs-scalar kernel contract: the two precompiled tiers exist in
// two forms that MUST stay decision-identical. The scalar kernels in
// this file (sizeBoundProfiled, padBoundProfiled) evaluate one
// candidate at a time through its *tree.Profile pointers — the BK and
// VP backends, whose traversal order is dictated by tree geometry, run
// every budgeted evaluation through them via cascadeDistanceAtMost.
// The block kernels (kernels.go) evaluate the same tiers over a whole
// candidate block laid out as a struct-of-arrays profile arena
// (block.go): contiguous int32 sweeps emitting per-slot bound values
// and survivor bitmaps, no per-candidate pointer chasing. The cascade
// sweep (scanKNN, over one block per shard, and scanRange) consumes
// blocks. For any (query, candidate,
// threshold), block and scalar kernels admit and dismiss identically
// and produce equal bound values — kernels_test.go pins this
// bit-for-bit over fuzz-seeded corpora — so all four backends stay
// node-identical. Tier 2 has one form only (degreeTierPrunes, reading
// the candidate's profile through its item), and whatever the filter
// path, survivors reach one shared verify stage (verifyDistanceAtMost).

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

// pairProfiled reports whether every tree pair the distance needs has
// profiles on both sides, i.e. whether the cascade can run.
func pairProfiled(q, it Item) bool {
	if q.OutP == nil || it.OutP == nil {
		return false
	}
	if q.In != nil && it.In != nil && (q.InP == nil || it.InP == nil) {
		return false
	}
	return true
}

// candBound is the precompiled cheap half of one candidate's cascade:
// the size and padding tiers (size <= pad), a handful of int32 loads
// per candidate. The degree tier is deliberately NOT precompiled — it
// costs a walk over both profiles per candidate, so the scans evaluate
// it lazily, only for candidates the cheap tiers admit (see
// degreeTierPrunes).
type candBound struct {
	size, pad int32
}

// tier attributes a prune by the padding value alone to the cheapest
// tier that already decides it. Callers guarantee pad > t.
func (cb candBound) tier(t int) cascadeTier {
	if int(cb.size) > t {
		return tierSize
	}
	return tierPadding
}

// itemCascadeBounds computes the cheap cascade tiers for one candidate
// — summed over the out/in tree pairs for directed items — for
// best-first ordering, where every candidate needs a key regardless of
// threshold. Unprofiled pairs fall back to the tree-walk bounds.
func itemCascadeBounds(q, it Item) candBound {
	if !pairProfiled(q, it) {
		return candBound{size: int32(itemSizeBound(q, it)), pad: int32(ItemLowerBound(q, it))}
	}
	cb := candBound{
		size: int32(ted.SizeBound(q.OutP, it.OutP)),
		pad:  int32(ted.PaddingBound(q.OutP, it.OutP)),
	}
	if q.In != nil && it.In != nil {
		cb.size += int32(ted.SizeBound(q.InP, it.InP))
		cb.pad += int32(ted.PaddingBound(q.InP, it.InP))
	}
	return cb
}

// degreeTierPrunes runs tier 2, the degree-sequence bound, at threshold
// t: ted.DegreeBound summed over the out/in tree pairs, the in-pair
// under whatever the out-pair left of t. It is the tier's only form —
// every scan and the tree backends' gate call it with the candidate's
// profiles read through its item. Never prunes unprofiled pairs.
func degreeTierPrunes(q, it Item, t int) (bound int, pruned bool) {
	if !pairProfiled(q, it) {
		return 0, false
	}
	bound = ted.DegreeBound(q.OutP, it.OutP, t)
	if bound <= t && q.In != nil && it.In != nil {
		bound += ted.DegreeBound(q.InP, it.InP, t-bound)
	}
	return bound, bound > t
}

// itemSizeBound is tier 0 without profiles: node-count gaps.
func itemSizeBound(q, it Item) int {
	s := ted.SizeLowerBound(q.Out, it.Out)
	if q.In != nil && it.In != nil {
		s += ted.SizeLowerBound(q.In, it.In)
	}
	return s
}

// cascadeDistanceAtMost is the full per-candidate pipeline: the tiers
// gate (cheapest first, each only when the previous one passed), then
// the verify stage runs the budgeted TED*. All counter accounting —
// per-tier prunes, early exits, distance calls — happens here; callers
// must not observe again. The outcome contract is itemDistanceAtMost's:
// OutcomeExact means d is the exact distance; anything else means both
// d and the true distance exceed the budget.
func cascadeDistanceAtMost(c *ted.Computer, q, it Item, budget int, cs *counterSet) (int, ted.Outcome) {
	if budget != ted.Unbounded && pairProfiled(q, it) {
		if s := sizeBoundProfiled(q, it); s > budget {
			cs.cascadePrune(tierSize)
			return s, ted.OutcomePruned
		}
		if p := padBoundProfiled(q, it); p > budget {
			cs.cascadePrune(tierPadding)
			return p, ted.OutcomePruned
		}
		if dg, pruned := degreeTierPrunes(q, it, budget); pruned {
			cs.cascadePrune(tierDegree)
			return dg, ted.OutcomePruned
		}
	}
	return verifyDistanceAtMost(c, q, it, budget, cs)
}

func sizeBoundProfiled(q, it Item) int {
	s := ted.SizeBound(q.OutP, it.OutP)
	if q.In != nil && it.In != nil {
		s += ted.SizeBound(q.InP, it.InP)
	}
	return s
}

func padBoundProfiled(q, it Item) int {
	p := ted.PaddingBound(q.OutP, it.OutP)
	if q.In != nil && it.In != nil {
		p += ted.PaddingBound(q.InP, it.InP)
	}
	return p
}

// verifyDistanceAtMost is the verify stage alone, for callers that
// already ran the tiers (the best-first scans precompile them per
// candidate). It mirrors itemDistanceAtMost — out-tree first, the
// in-tree under whatever budget is left — with the profile fast paths,
// and records the outcome on cs.
func verifyDistanceAtMost(c *ted.Computer, q, it Item, budget int, cs *counterSet) (int, ted.Outcome) {
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
// (size, height) with tree.Canonical breaking the rare full tie —
// derived lazily, cached on each tree — bit-compatible with ted's
// orient. The computation itself takes the profiled
// faithful-level fast path (ted.Computer.DistanceAtMostProfiled):
// per-level sorted label runs and per-node sorted children collections
// come off the profiles instead of being rebuilt and re-sorted per
// pair, with bit-identical results. Without profiles it is plain
// DistanceAtMost.
func treeDistanceAtMost(c *ted.Computer, t1, t2 *tree.Tree, p1, p2 *tree.Profile, budget int) (int, ted.Outcome) {
	if p1 == nil || p2 == nil {
		return c.DistanceAtMost(t1, t2, budget)
	}
	if p1.Canon == p2.Canon {
		return 0, ted.OutcomeExact
	}
	if profileSwap(t1, t2, p1, p2) {
		t1, t2, p1, p2 = t2, t1, p2, p1
	}
	return c.DistanceAtMostProfiled(t1, t2, p1, p2, budget)
}

// profileSwap mirrors ted's canonical pair orientation — size, then
// height, then AHU encoding — true when the pair must swap. The size
// and height tiers come off the profiles; only a full tie consults
// tree.Canonical, which each tree derives once and caches.
func profileSwap(t1, t2 *tree.Tree, p1, p2 *tree.Profile) bool {
	switch {
	case p1.Size != p2.Size:
		return p1.Size > p2.Size
	case len(p1.Levels) != len(p2.Levels):
		return len(p1.Levels) > len(p2.Levels)
	default:
		return tree.Canonical(t1) > tree.Canonical(t2)
	}
}

// prepare precompiles every candidate's cheap cascade bounds across the
// sweep's parts and fills the best-first evaluation order: ascending
// padding bound, ties part after part and by node within a part (see
// blockOrder), so the candidates most likely to rank are evaluated first
// and the shared l-th best threshold tightens as early as possible. A
// part whose block covers its items takes its bounds from one block-
// kernel sweep over the columnar arenas when the query is profiled; any
// other part computes the scalar per-item bounds in parallel at the
// given width. Both give bit-identical bounds, indexed by global slot,
// so nothing item-sized is copied or re-sorted. A part's dead slots get
// bounds too — the block kernels sweep whole arrays — but never enter
// the order, so they are never claimed, verified or counted.
func (sc *sweepScratch) prepare(ctx context.Context, query Item, parts []sweepPart, width int) error {
	sc.ends, sc.dead, sc.blocked = sc.ends[:0], sc.dead[:0], sc.blocked[:0]
	total := int32(0)
	for _, pt := range parts {
		total += int32(len(pt.items))
		sc.ends, sc.dead = append(sc.ends, total), append(sc.dead, pt.dead)
	}
	sc.sizeB, sc.padB = grow(sc.sizeB, int(total)), grow(sc.padB, int(total))
	for p, pt := range parts {
		lo, hi := partBase(sc.ends, p), sc.ends[p]
		sizeB, padB := sc.sizeB[lo:hi], sc.padB[lo:hi]
		if blk := pt.blk; blk != nil && blk.n == len(pt.items) && blk.bounds(query, sizeB, padB) {
			pt.cs.blockSweep(blk.n - len(pt.dead))
			sc.blocked = append(sc.blocked, true)
			continue
		}
		items := pt.items
		if err := ParallelForCtx(ctx, len(items), width, func(i int) {
			cb := itemCascadeBounds(query, items[i])
			sizeB[i], padB[i] = cb.size, cb.pad
		}); err != nil {
			return err
		}
		sc.blocked = append(sc.blocked, false)
	}
	sc.order, sc.counts = blockOrder(sc.padB, sc.dead, sc.ends, sc.order, sc.counts)
	return nil
}
