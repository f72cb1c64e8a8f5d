package ned

import (
	"cmp"
	"context"
	"iter"
	"slices"
	"unsafe"

	"ned/internal/graph"
	"ned/internal/ted"
)

// This file makes every index backend mutable behind one interface. The
// paper pitches NED for evolving graphs (de-anonymization against
// networks that change over time), so the index layer supports node
// churn without a full re-index:
//
//   - the cascade scan (both of its names, "linear" and "pruned") is an
//     immutable base plus a copy-on-write delta and tombstones, folded
//     inline once they pass a fixed fraction of the base — a mutation
//     copies O(delta), and every query sweeps base and delta exactly;
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
// Corpus engine never mutates a published index at all: it Clones the
// current epoch under its write lock, mutates the private clone, and publishes it as the next epoch, so lock-free
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
	// shared (counters stay continuous across epochs). No metric
	// evaluations; the trees copy their nodes, the scan copies nothing
	// item-sized.
	Clone() DynamicIndex
}

// ItemIndex is a DynamicIndex that is also the store of its items: the
// cascade scan, which a built Corpus keeps as the only copy of its
// items. Both scan constructors return one.
type ItemIndex interface {
	DynamicIndex
	// Item returns node v's indexed item.
	Item(v graph.NodeID) (Item, bool)
	// Items iterates the indexed items in ascending node order.
	Items() iter.Seq[Item]
	// Splice returns a successor with dels removed and ups upserted (an
	// up of an indexed node replaces its item), leaving the receiver
	// untouched, and the bytes of index state the successor copied:
	// O(change), plus the rebuild when the change folds the delta.
	Splice(ups []Item, dels []graph.NodeID) (ItemIndex, int64)
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

// A scan's items are an immutable base plus a copy-on-write delta, the
// MV-PBT layout (PAPERS.md). The base holds node-sorted items and their
// profile block; delta holds, node-sorted, what was inserted since the
// last fold, with a block of its own; dead lists, ascending, the base
// slots removed since then — the base's live run is the spans between
// them — and deadRows the rows of the base block that describe them, the
// form a sweep skips them in. A mutation never writes any of these: it
// allocates a new delta and dead lists and compiles the new delta's
// block, so clones share everything and a write copies O(delta). Once
// the delta and the dead slots together pass max(foldMin,
// len(base)>>foldShift), the mutation folds them inline into a new base
// — one merge and one block compile, amortized over the mutations since
// the last fold.

// foldMin and foldShift fix when a scan folds (see above).
const (
	foldMin   = 64
	foldShift = 5
)

// itemBytes is what copying one Item costs.
const itemBytes = int64(unsafe.Sizeof(Item{}))

func (b *scanBackend) Insert(items ...Item) { b.apply(items, nil) }

func (b *scanBackend) Remove(nodes ...graph.NodeID) int {
	n, _ := b.apply(nil, nodes)
	return n
}

func (b *scanBackend) Splice(ups []Item, dels []graph.NodeID) (ItemIndex, int64) {
	c := *b
	_, copied := c.apply(ups, dels)
	return &c, copied
}

// apply removes dels and the nodes of ups, then inserts ups. It replaces
// b's dead list, delta and delta block with fresh ones (a fold replaces
// the base too) and writes nothing b shares with its clones. It returns
// how many indexed items it removed and how many bytes it copied.
func (b *scanBackend) apply(ups []Item, dels []graph.NodeID) (removed int, copied int64) {
	gone := nodeSet(dels)
	for _, it := range ups {
		gone[it.Node] = true
	}
	var slots []int32
	for v := range gone {
		for s := b.baseSlot(v); s < len(b.base) && b.base[s].Node == v; s++ {
			if !b.isDead(int32(s)) {
				slots = append(slots, int32(s))
			}
		}
	}
	if len(slots) > 0 {
		rows := slices.Clone(b.deadRows)
		for _, s := range slots {
			rows = append(rows, b.bblk.rowOf(b.base, s))
		}
		slices.Sort(rows)
		b.dead = slices.Concat(b.dead, slots)
		slices.Sort(b.dead)
		b.deadRows = rows
		copied += 8 * int64(len(b.dead))
	}
	delta := make([]Item, 0, len(b.delta)+len(ups))
	for _, it := range b.delta {
		if !gone[it.Node] {
			delta = append(delta, it)
		}
	}
	dropped := len(b.delta) - len(delta)
	removed = len(slots) + dropped
	if dropped+len(ups) > 0 {
		last := sweepPart{items: b.delta, blk: b.dblk}
		b.delta = append(delta, ups...)
		slices.SortFunc(b.delta, compareNodes)
		b.dblk = compileBlock(b.delta, last)
		copied += itemBytes*int64(len(b.delta)) + b.dblk.bytes()
	}
	if len(b.dead)+len(b.delta) > max(foldMin, len(b.base)>>foldShift) {
		return removed, copied + b.fold()
	}
	return removed, copied
}

// fold merges the live base and the delta into a new base, its block
// copied from theirs, and returns the bytes the rebuild copied.
func (b *scanBackend) fold() int64 {
	items := slices.AppendSeq(make([]Item, 0, b.Len()), b.Items())
	b.bblk = compileBlock(items, sweepPart{items: b.base, blk: b.bblk}, sweepPart{items: b.delta, blk: b.dblk})
	b.base = items
	b.dead, b.deadRows, b.delta, b.dblk = nil, nil, nil, nil
	return itemBytes*int64(len(items)) + b.bblk.bytes()
}

// nodeVs compares an item's node with v, for binary searches.
func nodeVs(it Item, v graph.NodeID) int { return cmp.Compare(it.Node, v) }

// baseSlot is the first base slot whose node is not below v.
func (b *scanBackend) baseSlot(v graph.NodeID) int {
	s, _ := slices.BinarySearchFunc(b.base, v, nodeVs)
	return s
}

// isDead reports whether base slot s was removed since the last fold.
func (b *scanBackend) isDead(s int32) bool {
	_, found := slices.BinarySearch(b.dead, s)
	return found
}

func (b *scanBackend) Item(v graph.NodeID) (Item, bool) {
	if i, ok := slices.BinarySearchFunc(b.delta, v, nodeVs); ok {
		return b.delta[i], true
	}
	for s := b.baseSlot(v); s < len(b.base) && b.base[s].Node == v; s++ {
		if !b.isDead(int32(s)) {
			return b.base[s], true
		}
	}
	return Item{}, false
}

// Items merges the live base with the delta, both node-sorted.
func (b *scanBackend) Items() iter.Seq[Item] {
	return func(yield func(Item) bool) {
		delta := b.delta
		for lo, hi := range liveSpans(int32(len(b.base)), b.dead) {
			for _, it := range b.base[lo:hi] {
				for len(delta) > 0 && delta[0].Node < it.Node {
					if !yield(delta[0]) {
						return
					}
					delta = delta[1:]
				}
				if !yield(it) {
					return
				}
			}
		}
		for _, it := range delta {
			if !yield(it) {
				return
			}
		}
	}
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
		d, o := gatedDistanceAtMost(comp, query, it, budget, b.counters)
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
		d, o := gatedDistanceAtMost(comp, query, it, r, b.counters)
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
	// under the owner's write lock, so no query observes the flag
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
