// Package vptree implements a vantage-point tree, the metric index the
// paper pairs with NED for sub-linear nearest-neighbor queries (§13.4,
// Figure 9b). Because TED*/NED satisfy the triangle inequality (§7),
// the index prunes candidate subtrees exactly — results are identical to
// a full scan.
//
// The tree is generic over the item type; callers supply the metric.
// Queries are safe for concurrent use: the structure is immutable after
// New and the statistics counter is atomic. The Context variants check
// for cancellation inside the search loop so long queries over expensive
// metrics can be aborted.
package vptree

import (
	"container/heap"
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
)

// Metric computes the distance between two items. It must satisfy the
// metric axioms for search results to be exact.
type Metric[T any] func(a, b T) float64

// BudgetedMetric is a Metric that may stop early: it returns the exact
// distance with exact == true, or — when the distance provably exceeds
// budget — any lower bound on it with exact == false. Searches use the
// budget to skip the tail of expensive evaluations (a TED* computation
// can abandon a hopeless candidate mid-way) while staying exact: a
// search only requests a budget when any distance above it can neither
// enter the result set nor change a pruning decision it is about to
// make.
type BudgetedMetric[T any] func(a, b T, budget float64) (d float64, exact bool)

// cancelCheckStride is how many metric evaluations a search performs
// between context checks. TED* evaluations dominate the cost of a visit,
// so a small stride keeps cancellation prompt without measurable
// overhead.
const cancelCheckStride = 16

// Tree is a vantage-point tree. Its structure is immutable after New;
// Delete supports logical removal via tombstones: a dead node keeps
// routing searches through its subtrees (its vantage distances stay
// valid) but can no longer appear in results. Rebuild from the live
// items once tombstones accumulate — the tree never compacts itself.
type Tree[T any] struct {
	dist  Metric[T]
	bdist BudgetedMetric[T] // optional; see SetBudgetedMetric
	less  func(a, b T) bool // optional; see SetTieBreak
	root  *node[T]
	count int // indexed points, including tombstones
	dead  int // tombstoned points

	// distCalls counts metric evaluations since the last ResetStats; the
	// Figure 9b experiment uses it to compare index vs scan work. Atomic
	// so concurrent queries may share the tree.
	distCalls atomic.Int64
}

// SetBudgetedMetric installs a budget-aware variant of the metric. KNN
// passes each node the largest distance that could still matter there —
// radius + tau for an internal node (beyond that the vantage ball is
// provably sterile and the point itself cannot rank), tau alone for a
// leaf — and Range does the same with r in place of tau. An evaluation
// that exceeds its budget skips the inside subtree and the result set
// without affecting exactness. Call before the first query; not safe
// concurrently with searches.
func (t *Tree[T]) SetBudgetedMetric(b BudgetedMetric[T]) { t.bdist = b }

// SetTieBreak installs a strict total order used to resolve equal
// distances in KNN, making the returned set deterministic and
// backend-independent: the k smallest (distance, less) pairs. Without
// it, ties at the kth distance resolve by visit order. Call before the
// first query; not safe concurrently with searches.
func (t *Tree[T]) SetTieBreak(less func(a, b T) bool) { t.less = less }

// eval computes the distance from query to n's point under the largest
// budget that could still matter at this node given the current search
// radius tau.
func (t *Tree[T]) eval(query T, n *node[T], tau float64) (d float64, exact bool) {
	t.distCalls.Add(1)
	if t.bdist == nil || tau >= inf() {
		return t.dist(query, n.point), true
	}
	budget := tau
	if n.inside != nil || n.beyond != nil {
		budget = n.radius + tau
	}
	return t.bdist(query, n.point, budget)
}

type node[T any] struct {
	point  T
	radius float64 // median distance from point to the inside subtree
	inside *node[T]
	beyond *node[T]
	dead   bool // tombstone: still routes, never a hit
}

// New builds a VP-tree over items using the supplied metric. Vantage
// points are chosen pseudo-randomly from a fixed seed so builds are
// deterministic. Building costs O(n log n) metric evaluations.
func New[T any](items []T, dist Metric[T]) *Tree[T] {
	t := &Tree[T]{dist: dist, count: len(items)}
	pts := append([]T(nil), items...)
	rng := rand.New(rand.NewSource(1))
	t.root = t.build(pts, rng)
	return t
}

func (t *Tree[T]) build(pts []T, rng *rand.Rand) *node[T] {
	if len(pts) == 0 {
		return nil
	}
	// Move a random vantage point to the front.
	i := rng.Intn(len(pts))
	pts[0], pts[i] = pts[i], pts[0]
	n := &node[T]{point: pts[0]}
	rest := pts[1:]
	if len(rest) == 0 {
		return n
	}
	ds := make([]float64, len(rest))
	for j, p := range rest {
		ds[j] = t.dist(n.point, p)
	}
	// Partition around the median distance.
	idx := make([]int, len(rest))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool { return ds[idx[a]] < ds[idx[b]] })
	mid := len(idx) / 2
	n.radius = ds[idx[mid]]
	inside := make([]T, 0, mid)
	beyond := make([]T, 0, len(idx)-mid)
	for _, j := range idx {
		if ds[j] < n.radius {
			inside = append(inside, rest[j])
		} else {
			beyond = append(beyond, rest[j])
		}
	}
	n.inside = t.build(inside, rng)
	n.beyond = t.build(beyond, rng)
	return n
}

// Len returns the number of live (non-tombstoned) indexed items.
func (t *Tree[T]) Len() int { return t.count - t.dead }

// Delete tombstones every live indexed item for which match returns
// true and reports how many it marked. The tree keeps its shape: dead
// nodes still route searches (their vantage distances remain valid) but
// are never returned as hits. Delete walks the whole tree and performs
// no metric evaluations. Not safe concurrently with searches.
func (t *Tree[T]) Delete(match func(T) bool) int {
	marked := 0
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		if n == nil {
			return
		}
		if !n.dead && match(n.point) {
			n.dead = true
			marked++
		}
		walk(n.inside)
		walk(n.beyond)
	}
	walk(t.root)
	t.dead += marked
	return marked
}

// Clone returns a structurally private copy of the tree: every node —
// including its tombstone flag — is duplicated, while the item payloads
// and the metric closures are shared. Mutating the clone (Delete) never
// touches the original, so a published tree can keep serving lock-free
// readers while its successor is prepared. Cloning walks the whole tree
// but performs no metric evaluations.
func (t *Tree[T]) Clone() *Tree[T] {
	c := &Tree[T]{dist: t.dist, bdist: t.bdist, less: t.less, count: t.count, dead: t.dead}
	if t.root == nil {
		return c
	}
	// One slab holds every cloned node: a single allocation with better
	// locality than n individual nodes, sized exactly by the build-time
	// count (the structure never grows after New).
	slab := make([]node[T], t.count)
	next := 0
	var copyNode func(n *node[T]) *node[T]
	copyNode = func(n *node[T]) *node[T] {
		if n == nil {
			return nil
		}
		nn := &slab[next]
		next++
		nn.point, nn.radius, nn.dead = n.point, n.radius, n.dead
		nn.inside = copyNode(n.inside)
		nn.beyond = copyNode(n.beyond)
		return nn
	}
	c.root = copyNode(t.root)
	return c
}

// DistanceCalls returns the number of metric evaluations since the last
// ResetStats (not counting the build).
func (t *Tree[T]) DistanceCalls() int64 { return t.distCalls.Load() }

// ResetStats zeroes the metric-evaluation counter.
func (t *Tree[T]) ResetStats() { t.distCalls.Store(0) }

// Result is a search hit.
type Result[T any] struct {
	Item T
	Dist float64
}

// resultHeap is a max-heap on (Dist, tie-break) so the worst current hit
// is at the top. Without a tie-break, equal distances order by heap
// mechanics alone, reproducing the historical visit-order ties.
type resultHeap[T any] struct {
	items []Result[T]
	less  func(a, b T) bool
}

func (h *resultHeap[T]) Len() int { return len(h.items) }
func (h *resultHeap[T]) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return h.less != nil && h.less(b.Item, a.Item)
}
func (h *resultHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *resultHeap[T]) Push(x interface{}) { h.items = append(h.items, x.(Result[T])) }
func (h *resultHeap[T]) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// KNN returns the k nearest neighbors of query in ascending distance
// order. Ties are resolved by visit order, which is deterministic.
func (t *Tree[T]) KNN(query T, k int) []Result[T] {
	res, _ := t.KNNContext(context.Background(), query, k)
	return res
}

// KNNContext is KNN with cancellation: the search checks ctx between
// batches of metric evaluations and returns ctx.Err() with a nil result
// if the context is done before the search completes.
func (t *Tree[T]) KNNContext(ctx context.Context, query T, k int) ([]Result[T], error) {
	if k <= 0 || t.root == nil {
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := &resultHeap[T]{less: t.less}
	tau := inf()
	evals := 0
	var searchErr error
	var visit func(n *node[T])
	visit = func(n *node[T]) {
		if n == nil || searchErr != nil {
			return
		}
		if evals%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				searchErr = err
				return
			}
		}
		if n.dead && n.inside == nil && n.beyond == nil {
			// A tombstoned leaf routes nothing and ranks nowhere: skip
			// the metric evaluation entirely.
			return
		}
		d, exact := t.eval(query, n, tau)
		evals++
		if !exact {
			// d exceeds every budget that matters here: it cannot enter
			// the result set (d > tau) and the inside ball is provably
			// sterile (d - tau > radius); only beyond can hold hits.
			visit(n.beyond)
			return
		}
		if !n.dead && (h.Len() < k || d < tau ||
			(t.less != nil && d == tau && t.less(n.point, h.items[0].Item))) {
			heap.Push(h, Result[T]{n.point, d})
			if h.Len() > k {
				heap.Pop(h)
			}
			if h.Len() == k {
				tau = h.items[0].Dist
			}
		}
		// Visit the more promising side first; prune with the triangle
		// inequality: the inside ball can contain a better hit only if
		// d - tau < radius (its membership is strict, so even an exact
		// tie on the bound cannot reach distance tau), the beyond region
		// only if d + tau >= radius.
		if d < n.radius {
			visit(n.inside)
			if h.Len() < k || d+tau >= n.radius {
				visit(n.beyond)
			}
		} else {
			visit(n.beyond)
			if h.Len() < k || d-tau < n.radius {
				visit(n.inside)
			}
		}
	}
	visit(t.root)
	if searchErr != nil {
		return nil, searchErr
	}
	out := make([]Result[T], h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result[T])
	}
	return out, nil
}

// Range returns every indexed item within distance r of query,
// in no particular order.
func (t *Tree[T]) Range(query T, r float64) []Result[T] {
	res, _ := t.RangeContext(context.Background(), query, r)
	return res
}

// RangeContext is Range with cancellation semantics matching KNNContext.
func (t *Tree[T]) RangeContext(ctx context.Context, query T, r float64) ([]Result[T], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []Result[T]
	evals := 0
	var searchErr error
	var visit func(n *node[T])
	visit = func(n *node[T]) {
		if n == nil || searchErr != nil {
			return
		}
		if evals%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				searchErr = err
				return
			}
		}
		if n.dead && n.inside == nil && n.beyond == nil {
			return
		}
		d, exact := t.eval(query, n, r)
		evals++
		if !exact {
			// d > radius + r: not a hit, and the inside ball cannot
			// reach back within r; only beyond can hold hits.
			visit(n.beyond)
			return
		}
		if d <= r && !n.dead {
			out = append(out, Result[T]{n.point, d})
		}
		if d-r < n.radius {
			visit(n.inside)
		}
		if d+r >= n.radius {
			visit(n.beyond)
		}
	}
	visit(t.root)
	if searchErr != nil {
		return nil, searchErr
	}
	return out, nil
}

func inf() float64 { return 1e308 }
