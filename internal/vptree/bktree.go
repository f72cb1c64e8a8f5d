package vptree

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
)

// BKTree is a Burkhard–Keller tree: a metric index specialized to
// integer-valued metrics such as TED*/NED. Children of a node are keyed
// by their exact distance to the node, which gives cheap exact pruning
// via the triangle inequality: a child bucket at distance d can contain
// a hit within radius r of the query only if |d − D| <= r, where D is
// the query's distance to the node.
//
// BK-trees often beat VP-trees on small-range integer metrics because no
// floating-point radii or medians are involved; the ablation benchmark
// in internal/bench compares the two on NED workloads.
//
// Queries are safe for concurrent use once inserts stop: the statistics
// counter is atomic and searches never mutate the tree.
type BKTree[T any] struct {
	dist  func(a, b T) int
	bdist func(a, b T, budget int) (int, bool) // optional; see SetBudgetedMetric
	less  func(a, b T) bool                    // optional; see SetTieBreak
	root  *bkNode[T]
	count int // indexed points, including tombstones
	dead  int // tombstoned points

	distCalls atomic.Int64
}

type bkNode[T any] struct {
	point    T
	children map[int]*bkNode[T]

	// maxKey is the largest child bucket key, maintained on Insert: once
	// the query's distance to point provably exceeds maxKey + w (w the
	// search ring radius), no child window can overlap and the exact
	// distance is irrelevant — the basis of the budgeted search.
	maxKey int

	// dead marks a tombstone: the node still routes searches through its
	// children (its bucket keys stay valid) but never ranks as a hit.
	dead bool
}

// SetBudgetedMetric installs a budget-aware metric variant returning
// either the exact distance (exact == true) or, when the distance
// provably exceeds budget, any lower bound on it (exact == false).
// Searches pass each node the largest distance that could still matter:
// maxKey + w, beyond which the node is not a hit and no child ring
// intersects the search window. Call before the first query; not safe
// concurrently with searches.
func (t *BKTree[T]) SetBudgetedMetric(b func(a, b T, budget int) (int, bool)) { t.bdist = b }

// SetTieBreak installs a strict total order resolving equal distances in
// KNN, making the result the k smallest (distance, less) pairs. Without
// it, ties at the kth distance resolve by visit order. Call before the
// first query; not safe concurrently with searches.
func (t *BKTree[T]) SetTieBreak(less func(a, b T) bool) { t.less = less }

// eval computes the query-to-node distance under the largest budget that
// could matter there given ring radius w.
func (t *BKTree[T]) eval(query T, n *bkNode[T], w int) (int, bool) {
	t.distCalls.Add(1)
	if t.bdist == nil || w == math.MaxInt {
		return t.dist(query, n.point), true
	}
	budget := w
	if n.children != nil {
		if w >= math.MaxInt-n.maxKey {
			return t.dist(query, n.point), true
		}
		if n.maxKey+w > budget {
			budget = n.maxKey + w
		}
	}
	return t.bdist(query, n.point, budget)
}

// NewBK builds a BK-tree by successive insertion. Insertion order is the
// slice order, making builds deterministic.
func NewBK[T any](items []T, dist func(a, b T) int) *BKTree[T] {
	t := &BKTree[T]{dist: dist}
	for _, it := range items {
		t.Insert(it)
	}
	return t
}

// Insert adds one item to the index. Insert is not safe to call
// concurrently with queries.
func (t *BKTree[T]) Insert(item T) {
	t.count++
	if t.root == nil {
		t.root = &bkNode[T]{point: item}
		return
	}
	cur := t.root
	for {
		d := t.dist(cur.point, item)
		if cur.children == nil {
			cur.children = make(map[int]*bkNode[T])
		}
		if d > cur.maxKey {
			cur.maxKey = d
		}
		next, ok := cur.children[d]
		if !ok {
			cur.children[d] = &bkNode[T]{point: item}
			return
		}
		cur = next
	}
}

// Len returns the number of live (non-tombstoned) indexed items.
func (t *BKTree[T]) Len() int { return t.count - t.dead }

// Delete tombstones every live indexed item for which match returns
// true and reports how many it marked. Tombstoned nodes keep routing
// searches through their children but never rank as hits. Delete walks
// the whole tree without metric evaluations. Not safe concurrently with
// queries or Insert.
func (t *BKTree[T]) Delete(match func(T) bool) int {
	marked := 0
	var walk func(n *bkNode[T])
	walk = func(n *bkNode[T]) {
		if !n.dead && match(n.point) {
			n.dead = true
			marked++
		}
		for _, child := range n.children {
			walk(child)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	t.dead += marked
	return marked
}

// Clone returns a structurally private copy of the tree sharing the
// item payloads: nodes, child maps, maxKey bounds, and tombstone flags
// are all duplicated, so Insert/Delete on the clone never touch the
// original and a published tree keeps serving lock-free readers. The
// caller supplies fresh metric closures — BK insertion evaluates the
// metric during its descent, and the owner's hooks typically reference
// the owning wrapper (counter sinks, maintenance muting), which the
// clone's owner must re-point at itself. Cloning performs no metric
// evaluations.
func (t *BKTree[T]) Clone(dist func(a, b T) int, bdist func(a, b T, budget int) (int, bool)) *BKTree[T] {
	c := &BKTree[T]{dist: dist, bdist: bdist, less: t.less, count: t.count, dead: t.dead}
	if t.root == nil {
		return c
	}
	// One slab holds every cloned node (child maps are still per-node);
	// t.count is exact — the tree allocates one node per Insert.
	slab := make([]bkNode[T], t.count)
	next := 0
	var copyNode func(n *bkNode[T]) *bkNode[T]
	copyNode = func(n *bkNode[T]) *bkNode[T] {
		nn := &slab[next]
		next++
		nn.point, nn.maxKey, nn.dead = n.point, n.maxKey, n.dead
		if n.children != nil {
			nn.children = make(map[int]*bkNode[T], len(n.children))
			for d, child := range n.children {
				nn.children[d] = copyNode(child)
			}
		}
		return nn
	}
	c.root = copyNode(t.root)
	return c
}

// DistanceCalls returns metric evaluations since the last ResetStats
// (queries only; Insert calls are not counted).
func (t *BKTree[T]) DistanceCalls() int64 { return t.distCalls.Load() }

// ResetStats zeroes the metric-evaluation counter.
func (t *BKTree[T]) ResetStats() { t.distCalls.Store(0) }

// IntResult is a BK-tree search hit.
type IntResult[T any] struct {
	Item T
	Dist int
}

// Range returns all items within distance r of the query.
func (t *BKTree[T]) Range(query T, r int) []IntResult[T] {
	res, _ := t.RangeContext(context.Background(), query, r)
	return res
}

// RangeContext is Range with cancellation: the search checks ctx between
// batches of metric evaluations and returns ctx.Err() with a nil result
// if the context is done before the search completes.
func (t *BKTree[T]) RangeContext(ctx context.Context, query T, r int) ([]IntResult[T], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []IntResult[T]
	evals := 0
	var searchErr error
	var visit func(n *bkNode[T])
	visit = func(n *bkNode[T]) {
		if searchErr != nil {
			return
		}
		if evals%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				searchErr = err
				return
			}
		}
		if n.dead && len(n.children) == 0 {
			// A tombstoned leaf routes nothing and ranks nowhere: skip
			// the metric evaluation entirely.
			return
		}
		d, exact := t.eval(query, n, r)
		evals++
		if !exact {
			// d > maxKey + r: not a hit, and no child ring [cd-r, cd+r]
			// can reach the query's distance.
			return
		}
		if d <= r && !n.dead {
			out = append(out, IntResult[T]{n.point, d})
		}
		for cd, child := range n.children {
			// cd-d, not d+r: a radius near MaxInt must not wrap.
			if cd >= d-r && cd-d <= r {
				visit(child)
			}
		}
	}
	if t.root != nil {
		visit(t.root)
	}
	if searchErr != nil {
		return nil, searchErr
	}
	return out, nil
}

// KNN returns the k nearest items in ascending distance order. Ties are
// broken by visit order; the distance multiset matches a linear scan.
func (t *BKTree[T]) KNN(query T, k int) []IntResult[T] {
	res, _ := t.KNNContext(context.Background(), query, k)
	return res
}

// KNNContext is KNN with cancellation semantics matching RangeContext.
//
// Child buckets are visited best-first: rings ordered by |key − d|, the
// triangle-inequality lower bound on what the ring can contain, so the
// buckets most likely to hold close neighbors are searched first and
// the kth-best window shrinks as early as possible — later rings are
// then skipped outright instead of searched. The result is unchanged
// (the window test is exact); only the work profile improves.
func (t *BKTree[T]) KNNContext(ctx context.Context, query T, k int) ([]IntResult[T], error) {
	if k <= 0 || t.root == nil {
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Sorted slice by (distance, tie-break), fixed capacity k (small k:
	// a slice beats a heap).
	var best []IntResult[T]
	worst := func() int {
		if len(best) < k {
			return math.MaxInt
		}
		return best[len(best)-1].Dist
	}
	before := func(a, b IntResult[T]) bool {
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		return t.less != nil && t.less(a.Item, b.Item)
	}
	add := func(r IntResult[T]) {
		best = append(best, r)
		for i := len(best) - 1; i > 0 && before(best[i], best[i-1]); i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	evals := 0
	var searchErr error
	// ringBuf is a shared arena for the per-node sorted ring keys:
	// each visit appends its keys, sorts its own suffix, and truncates
	// on exit, so recursion never clobbers a parent's ring and the
	// whole search reuses one backing array.
	var ringBuf []int
	var visit func(n *bkNode[T])
	visit = func(n *bkNode[T]) {
		if searchErr != nil {
			return
		}
		if evals%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				searchErr = err
				return
			}
		}
		if n.dead && len(n.children) == 0 {
			return
		}
		d, exact := t.eval(query, n, worst())
		evals++
		if !exact {
			// d > maxKey + worst: the point cannot rank and no child
			// ring can overlap the current search window.
			return
		}
		if !n.dead && (len(best) < k || d < worst() ||
			(t.less != nil && d == worst() && t.less(n.point, best[len(best)-1].Item))) {
			add(IntResult[T]{n.point, d})
		}
		base := len(ringBuf)
		for cd := range n.children {
			ringBuf = append(ringBuf, cd)
		}
		ring := ringBuf[base:]
		slices.SortFunc(ring, func(a, b int) int {
			da, db := a-d, b-d
			if da < 0 {
				da = -da
			}
			if db < 0 {
				db = -db
			}
			if da != db {
				return da - db
			}
			return a - b
		})
		for _, cd := range ring {
			// Until k results exist there is no pruning radius; after
			// that the window is |cd - d| <= worst (triangle inequality).
			if len(best) >= k {
				w := worst()
				if cd < d-w || cd > d+w {
					continue
				}
			}
			visit(n.children[cd])
		}
		ringBuf = ringBuf[:base]
	}
	visit(t.root)
	if searchErr != nil {
		return nil, searchErr
	}
	return best, nil
}
