package ned

import (
	"context"
	"iter"
	"slices"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
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

// ItemIndex is a DynamicIndex that is also the store of its rows: the
// cascade scan, which a built Corpus keeps as the only copy of its
// rows. Both scan constructors and NewScan return one.
type ItemIndex interface {
	DynamicIndex
	// Item builds node v's indexed item — trees and profiles — in memory
	// of its own.
	Item(v graph.NodeID) (Item, bool)
	// Has reports whether node v is indexed.
	Has(v graph.NodeID) bool
	// Items iterates the indexed nodes in ascending order, as items
	// holding only Node and K.
	Items() iter.Seq[Item]
	// Rows iterates the indexed rows as the scan stores them, in
	// ascending node order.
	Rows() iter.Seq[Row]
	// Splice returns a successor with dels removed and ups upserted (an
	// up of an indexed node replaces its row), leaving the receiver
	// untouched, and the bytes of index state the successor copied:
	// O(change), plus the rebuild when the change folds the delta.
	Splice(ups *Rows, dels []graph.NodeID) (ItemIndex, int64)
}

// Row is one indexed row as the scan stores it: its node, the stored
// form of each of its trees (tree.ProfileArena.Words; In nil when
// undirected), the node count of both, and the out-tree's height.
type Row struct {
	Node    graph.NodeID
	Out, In []int32
	Size    int
	Height  int
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

// A scan's rows are an immutable base plus a delta, the MV-PBT layout
// (PAPERS.md), over one append-only set of rows: the base block ranks
// the rows live at the last fold, the delta block the rows inserted
// since. dead lists, ascending, the base rows removed since the last
// fold, and deadRows their ranks, the form a sweep skips them in. A
// mutation never writes a published block or list: it appends its
// rows to the arenas in place — only the first successor of a set of
// rows may extend it — and allocates new dead lists and delta ranks, so
// a write copies its own rows and the delta's ranks. A write the arenas
// have no room for, or a clone's, relocates the ranked rows into fresh
// arenas with room for an eighth as many more (relocate), which drops
// the rows no block ranks any longer; the ranks stay as they were. Once
// the live delta and the dead base rows together pass max(foldMin,
// base>>foldShift), the mutation folds them inline: the base ranks
// every live row, copying none.

// foldMin and foldShift fix when a scan folds (see above).
const (
	foldMin   = 64
	foldShift = 5
)

// RowRoom is how many more rows than n a relocation, a load or a build
// gives fresh arenas of n rows room for: an eighth as many, at least
// foldMin.
func RowRoom(n int) int { return max(foldMin, n/8) }

func (b *scanBackend) Insert(items ...Item) { b.apply(RowsOf(items), nil) }

func (b *scanBackend) Remove(nodes ...graph.NodeID) int {
	n, _ := b.apply(nil, nodes)
	return n
}

func (b *scanBackend) Splice(ups *Rows, dels []graph.NodeID) (ItemIndex, int64) {
	c := *b
	_, copied := c.apply(ups, dels)
	return &c, copied
}

// apply removes dels and the nodes of ups, then inserts ups (nil: none).
// It replaces b's dead lists and delta block with fresh ones (a fold
// replaces the base too) and writes nothing b shares with its clones.
// It returns how many indexed rows it removed and how many bytes it
// copied.
func (b *scanBackend) apply(ups *Rows, dels []graph.NodeID) (removed int, copied int64) {
	gone := nodeSet(dels)
	if ups != nil {
		for _, v := range ups.Nodes {
			gone[v] = true
		}
	}
	var slots []int32
	for v := range gone {
		if p, ok := b.bblk.find(v); ok && !b.isDead(p) {
			slots = append(slots, p)
		}
	}
	if len(slots) > 0 {
		rows := slices.Clone(b.deadRows)
		for _, s := range slots {
			rows = append(rows, b.bblk.rankOf(s))
		}
		slices.Sort(rows)
		b.dead = slices.Concat(b.dead, slots)
		slices.Sort(b.dead)
		b.deadRows = rows
		copied += 8 * int64(len(b.dead))
	}
	var keep []int32
	dropped := 0
	if b.dblk != nil {
		for p := range b.dblk.live() {
			if gone[b.dblk.Nodes[p]] {
				dropped++
			} else {
				keep = append(keep, p)
			}
		}
	}
	removed = len(slots) + dropped
	if ups.Len()+dropped > 0 {
		var c int64
		b.dblk, c = b.nextDelta(keep, ups)
		copied += c
	}
	if len(b.dead)+b.deltaLen() > max(foldMin, b.bblk.n>>foldShift) {
		return removed, copied + b.fold()
	}
	return removed, copied
}

// deltaLen is the delta's live row count.
func (b *scanBackend) deltaLen() int {
	if b.dblk == nil {
		return 0
	}
	return b.dblk.n
}

// rows is the scan's latest set of rows, which the delta's view extends
// past the base's.
func (b *scanBackend) rows() Rows {
	if b.dblk != nil {
		return b.dblk.Rows
	}
	return b.bblk.Rows
}

// nextDelta is the delta block ranking the last delta's rows keep (by
// ascending node) and then ups, appended to the scan's rows, and the
// bytes it copied. When the rows cannot take ups in place, the scan
// relocates first.
func (b *scanBackend) nextDelta(keep []int32, ups *Rows) (*profileBlock, int64) {
	if len(keep)+ups.Len() == 0 {
		return nil, 0
	}
	rows, copied, byNode := b.rows(), int64(0), keep
	if ups.Len() > 0 {
		var ok bool
		if rows, copied, ok = rows.Append(ups); !ok {
			var at []int32
			rows, at, copied = b.relocate(ups)
			for i, p := range keep {
				keep[i] = at[p]
			}
		}
		added := make([]int32, ups.Len())
		for i := range added {
			added[i] = int32(rows.Len() - ups.Len() + i)
		}
		byNode = mergeByNode(rows.Nodes, keep, added)
	}
	blk := newBlock(rows, byNode)
	return blk, copied + 8*int64(blk.n)
}

// Append extends rows in place with ups's rows when their arenas can
// (tree.ProfileArena.Fits), returning the extended rows and the bytes it
// copied, or ok false.
func (r Rows) Append(ups *Rows) (next Rows, copied int64, ok bool) {
	out := []tree.ArenaRun{{From: ups.Out, Hi: ups.Len()}}
	in := []tree.ArenaRun{{From: ups.In, Hi: ups.Len()}}
	if !r.Out.Fits(out) || (r.In != nil && !r.In.Fits(in)) || cap(r.Nodes)-len(r.Nodes) < ups.Len() {
		return r, 0, false
	}
	next = Rows{K: r.K}
	if r.K == 0 {
		next.K = ups.K
	}
	next.Out, copied = r.Out.Append(out)
	if r.In != nil {
		var c int64
		next.In, c = r.In.Append(in)
		copied += c
	}
	// The node column's tail is the arenas': theirs is taken now.
	next.Nodes = append(r.Nodes, ups.Nodes...)
	return next, copied + nodeBytes*int64(ups.Len()), true
}

// relocate copies the rows the scan ranks — the base's, dead ones
// included, then the delta's live ones, each in rank order — and then
// ups into fresh arenas with room for an eighth as many more, and moves
// the base's ranks and lists to them. It returns the new rows, each old
// physical row's new one (-1: not kept), and the bytes it copied. The
// ranks themselves do not change, so no query can tell.
func (b *scanBackend) relocate(ups *Rows) (Rows, []int32, int64) {
	old := b.rows()
	at := make([]int32, old.Len())
	for i := range at {
		at[i] = -1
	}
	order := slices.Clone(b.bblk.ord)
	if b.dblk != nil {
		order = append(order, b.dblk.ord...)
	}
	room := RowRoom(len(order) + ups.Len())
	fresh := Rows{K: old.K, Nodes: make([]graph.NodeID, len(order), len(order)+ups.Len()+room)}
	var out, in []tree.ArenaRun
	if old.In != nil {
		in = []tree.ArenaRun{}
	}
	for i, p := range order {
		at[p] = int32(i)
		fresh.Nodes[i] = old.Nodes[p]
		out = extendRun(out, old.Out, p)
		if old.In != nil {
			in = extendRun(in, old.In, p)
		}
	}
	if ups.Len() > 0 {
		fresh.Nodes = append(fresh.Nodes, ups.Nodes...)
		out = append(out, tree.ArenaRun{From: ups.Out, Hi: ups.Len()})
		if old.In != nil {
			in = append(in, tree.ArenaRun{From: ups.In, Hi: ups.Len()})
		}
		if fresh.K == 0 {
			fresh.K = ups.K
		}
	}
	fresh.compile(out, in, room)
	base := *b.bblk
	base.Rows, base.ord, base.byNode = fresh, make([]int32, base.n), make([]int32, 0, base.n)
	for r := range base.ord {
		base.ord[r] = int32(r)
	}
	for p := range b.bblk.live() {
		base.byNode = append(base.byNode, at[p])
	}
	b.bblk = &base
	if len(b.dead) > 0 {
		dead := make([]int32, len(b.dead))
		for i, p := range b.dead {
			dead[i] = at[p]
		}
		slices.Sort(dead)
		b.dead = dead
	}
	copied := fresh.Out.Bytes() + nodeBytes*int64(len(fresh.Nodes)) + 4*int64(2*base.n+len(b.dead))
	if fresh.In != nil {
		copied += fresh.In.Bytes()
	}
	return fresh, at, copied
}

// mergeByNode merges two lists of physical rows, each ascending by node,
// into a new one.
func mergeByNode(nodes []graph.NodeID, a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if nodes[b[0]] < nodes[a[0]] {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// extendRun appends physical row p of a to runs, extending the last run
// when it ends just before p in a.
func extendRun(runs []tree.ArenaRun, a *tree.ProfileArena, p int32) []tree.ArenaRun {
	if k := len(runs) - 1; k >= 0 && runs[k].From == a && runs[k].Hi == int(p) {
		runs[k].Hi++
		return runs
	}
	return append(runs, tree.ArenaRun{From: a, Lo: int(p), Hi: int(p) + 1})
}

// fold makes every live row the base's, copying none, and returns the
// bytes of the new ranks.
func (b *scanBackend) fold() int64 {
	live := make([]int32, 0, b.Len())
	for x := range b.liveRows() {
		live = append(live, x.p)
	}
	b.bblk = newBlock(b.rows(), live)
	b.dead, b.deadRows, b.dblk = nil, nil, nil
	return 8 * int64(len(live))
}

// isDead reports whether base row p was removed since the last fold.
func (b *scanBackend) isDead(p int32) bool {
	_, found := slices.BinarySearch(b.dead, p)
	return found
}

// blockRow is a physical row of one of a scan's blocks.
type blockRow struct {
	blk *profileBlock
	p   int32
}

// locate is node v's live row.
func (b *scanBackend) locate(v graph.NodeID) (blockRow, bool) {
	if b.dblk != nil {
		if p, ok := b.dblk.find(v); ok {
			return blockRow{b.dblk, p}, true
		}
	}
	if p, ok := b.bblk.find(v); ok && !b.isDead(p) {
		return blockRow{b.bblk, p}, true
	}
	return blockRow{}, false
}

func (b *scanBackend) Item(v graph.NodeID) (Item, bool) {
	x, ok := b.locate(v)
	if !ok {
		return Item{}, false
	}
	return x.blk.Item(int(x.p)), true
}

func (b *scanBackend) Has(v graph.NodeID) bool {
	_, ok := b.locate(v)
	return ok
}

// liveRows merges the live base rows with the delta's, by node; every
// row it yields is a row of b.rows().
func (b *scanBackend) liveRows() iter.Seq[blockRow] {
	return func(yield func(blockRow) bool) {
		var delta []int32
		if b.dblk != nil {
			delta = slices.Collect(b.dblk.live())
		}
		for p := range b.bblk.live() {
			if len(b.dead) > 0 && b.isDead(p) {
				continue
			}
			v := b.bblk.Nodes[p]
			for len(delta) > 0 && b.dblk.Nodes[delta[0]] < v {
				if !yield(blockRow{b.dblk, delta[0]}) {
					return
				}
				delta = delta[1:]
			}
			if !yield(blockRow{b.bblk, p}) {
				return
			}
		}
		for _, p := range delta {
			if !yield(blockRow{b.dblk, p}) {
				return
			}
		}
	}
}

func (b *scanBackend) Items() iter.Seq[Item] {
	return func(yield func(Item) bool) {
		for x := range b.liveRows() {
			if !yield(Item{Node: x.blk.Nodes[x.p], K: b.bblk.K}) {
				return
			}
		}
	}
}

func (b *scanBackend) Rows() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		for x := range b.liveRows() {
			if !yield(x.blk.Row(int(x.p))) {
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
