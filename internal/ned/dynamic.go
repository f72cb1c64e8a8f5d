package ned

import (
	"cmp"
	"context"
	"slices"

	"ned/internal/graph"
	"ned/internal/ted"
)

// This file makes every index backend mutable behind one interface. The
// paper pitches NED for evolving graphs (de-anonymization against
// networks that change over time), so the index layer supports node
// churn without a full re-index:
//
//   - the cascade scan (both of its names, "linear" and "pruned") edits
//     its item slice in place — mutation is as cheap as the slice ops
//     and queries never degrade;
//   - the VP-tree takes a tombstone + append path: removals mark tree
//     nodes dead (they keep routing, never rank), insertions land in a
//     linearly-scanned tail merged into every query;
//   - the BK-tree inserts natively (its structure grows by design) and
//     removes via tombstones.
//
// The Corpus engine only ever builds the scan; the tree halves serve the
// low-level VPIndex / BKIndex and the benchmark harness until it stops
// constructing them.
//
// Mutations are NOT safe concurrently with queries or each other. The
// sharded Corpus engine never mutates a published index at all: it
// Clones the current epoch under the owning shard's write lock, mutates
// the private clone, and publishes it as the next epoch, so lock-free
// readers keep serving from the old structure. Results after any
// mutation sequence are identical to a freshly built index over the
// same live items (the churn-equivalence suite enforces this).

// DynamicIndex is an Index that supports incremental mutation.
type DynamicIndex interface {
	Index
	// Insert adds items to the index. The caller guarantees the nodes are
	// not already indexed.
	Insert(items ...Item)
	// Remove deletes the items with the given node IDs, reporting how
	// many were present. Unknown nodes are ignored.
	Remove(nodes ...graph.NodeID) int
	// Clone returns a structurally private copy of the index: mutations
	// on the clone never touch the original's structure, so a published
	// epoch stays immutable for lock-free readers while its successor is
	// prepared. Item payloads and the serving-counter accumulator are
	// shared (counters stay continuous across epochs). O(n) copying, no
	// metric evaluations.
	Clone() DynamicIndex
}

// nodeSet builds a membership set for a removal batch.
func nodeSet(nodes []graph.NodeID) map[graph.NodeID]bool {
	s := make(map[graph.NodeID]bool, len(nodes))
	for _, v := range nodes {
		s[v] = true
	}
	return s
}

// removeItems filters items whose node is in gone, in place, returning
// the compacted slice and the number dropped.
func removeItems(items []Item, gone map[graph.NodeID]bool) ([]Item, int) {
	w := 0
	for _, it := range items {
		if gone[it.Node] {
			continue
		}
		items[w] = it
		w++
	}
	dropped := len(items) - w
	return items[:w], dropped
}

// --- cascade scan backend ---

// Scan mutations keep the item slice node-sorted — Insert merges the
// new items in at their node positions, Remove compacts stably — so the
// block's node order (byNode) stays the identity and a recompile never
// re-sorts the slots. Every mutation recompiles the profile block: the
// columnar arenas are index-aligned with the item slice and immutable
// (shared by epoch clones), so any slice edit needs a fresh block.
// Linear in the item count, the same order as the slice edit itself
// plus profile copying.

func (b *scanBackend) Insert(items ...Item) {
	add := slices.SortedFunc(slices.Values(items), func(x, y Item) int { return cmp.Compare(x.Node, y.Node) })
	// Merge from the back: the slice grows by len(add) and each existing
	// item moves at most once.
	n := len(b.items)
	b.items = slices.Grow(b.items, len(add))[:n+len(add)]
	i, j := n-1, len(add)-1
	for w := len(b.items) - 1; j >= 0; w-- {
		if i >= 0 && b.items[i].Node > add[j].Node {
			b.items[w] = b.items[i]
			i--
		} else {
			b.items[w] = add[j]
			j--
		}
	}
	b.block = compileBlock(b.items)
}

func (b *scanBackend) Remove(nodes ...graph.NodeID) int {
	var n int
	b.items, n = removeItems(b.items, nodeSet(nodes))
	if n > 0 {
		b.block = compileBlock(b.items)
	}
	return n
}

// --- VP-tree backend ---

func (b *vpBackend) Insert(items ...Item) { b.tail = append(b.tail, items...) }

func (b *vpBackend) Remove(nodes ...graph.NodeID) int {
	gone := nodeSet(nodes)
	var n int
	b.tail, n = removeItems(b.tail, gone)
	n += b.t.Delete(func(it Item) bool { return gone[it.Node] })
	return n
}

// mergeTailKNN folds the appended tail into a KNN result from the tree:
// out arrives canonically sorted with at most l entries; each tail item
// is evaluated under the current kth-best budget and merged. The union
// top-l equals a freshly built index's answer.
func (b *vpBackend) mergeTailKNN(ctx context.Context, query Item, l int, out []Neighbor) ([]Neighbor, error) {
	comp := tedComputers.Get().(*ted.Computer)
	defer tedComputers.Put(comp)
	for i, it := range b.tail {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		budget := ted.Unbounded
		if len(out) >= l {
			budget = out[len(out)-1].Dist
		}
		d, o := cascadeDistanceAtMost(comp, query, it, budget, b.counters)
		if o != ted.OutcomeExact || d > budget {
			continue
		}
		out = insertNeighborCanonical(out, Neighbor{Node: it.Node, Dist: d}, l)
	}
	return out, nil
}

// rangeTail appends tail items within distance r of the query.
func (b *vpBackend) rangeTail(ctx context.Context, query Item, r int, out []Neighbor) ([]Neighbor, error) {
	comp := tedComputers.Get().(*ted.Computer)
	defer tedComputers.Put(comp)
	for i, it := range b.tail {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		d, o := cascadeDistanceAtMost(comp, query, it, r, b.counters)
		if o == ted.OutcomeExact && d <= r {
			out = append(out, Neighbor{Node: it.Node, Dist: d})
		}
	}
	return out, nil
}

// --- BK-tree backend ---

func (b *bkBackend) Insert(items ...Item) {
	// The BK-tree inserts natively; its metric evaluations during the
	// descent are maintenance, not serving work, so the counter hook is
	// muted for the duration (Insert runs only on an unpublished clone
	// under the owner's shard lock, so no query observes the flag
	// mid-flight).
	b.building.Store(true)
	for _, it := range items {
		b.t.Insert(it)
	}
	b.building.Store(false)
}

func (b *bkBackend) Remove(nodes ...graph.NodeID) int {
	gone := nodeSet(nodes)
	return b.t.Delete(func(it Item) bool { return gone[it.Node] })
}
