package ned

import (
	"fmt"
	"sort"
	"unsafe"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
)

// This file is the mutation surface of the sharded Corpus: incremental
// node churn (Insert/Remove) and graph-version updates that re-extract only the
// signatures an edit actually affected. The paper pitches NED for
// evolving networks (de-anonymization and similarity search against
// graphs that change over time); without this layer any churn forced a
// full re-index.
//
// Every mutation call follows one protocol: route the batch to the
// shards that own the touched nodes, prepare a private successor epoch
// for each (on a built shard, a scan that shares its predecessor's base
// and carries a new delta — O(change) copied, plus an inline fold once
// the delta passes a fixed fraction of the shard), append one WAL record
// for the whole call on a durable corpus, and publish every successor
// with one store of the corpus view. The call is visible whole or not at
// all; queries never wait: in-flight readers keep the view they loaded,
// and shards not named by the batch are never locked at all.
//
// Invariant, enforced by the churn- and sharded-equivalence suites:
// after any interleaving of mutations, every query answers exactly as a
// corpus freshly built over the same live node set would.

// Insert adds nodes of the corpus graph to the indexed set. Nodes
// already indexed are skipped, so Insert is idempotent; out-of-range
// nodes fail with ErrNodeOutOfRange before anything is mutated, and
// corpora loaded without WithGraph fail with ErrNoGraph (there is no
// graph to extract signatures from).
//
// Before the first query nothing is materialized yet, so Insert just
// grows the node sets and the lazy build pays once. Afterward the new
// signatures are extracted in parallel — outside every shard lock, so
// queries and mutations of other shards proceed during the BFS work —
// and spliced into the owning shards. Insert holds the engine's read
// gate for its span, so it excludes UpdateGraph (the graph version
// cannot move under the extraction) but runs concurrently with queries,
// Removes, and other Inserts.
func (c *Corpus) Insert(nodes ...NodeID) error {
	if err := c.degradedErr(); err != nil {
		return err
	}
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	view := c.view.Load()
	g := view.g
	if g == nil {
		return fmt.Errorf("%w: Insert needs the corpus graph (restore with WithGraph)", ErrNoGraph)
	}
	// Validate the whole batch and filter it to nodes not yet indexed,
	// erroring before anything is mutated.
	fresh := make([]NodeID, 0, len(nodes))
	batch := make(map[NodeID]bool, len(nodes))
	for _, v := range nodes {
		if int(v) < 0 || int(v) >= g.NumNodes() {
			return fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
		}
		if batch[v] || view.epochOf(v).has(v) {
			continue
		}
		batch[v] = true
		fresh = append(fresh, v)
	}
	if len(fresh) == 0 {
		return nil
	}
	// Extract signatures outside the shard locks (the expensive part).
	// materialized cannot flip mid-Insert: the transition runs under
	// gmu's write side.
	var itemOf map[NodeID]ned.Item
	if c.materialized.Load() {
		items := ned.BuildProfiledItems(g, fresh, c.k, c.cfg.directed, c.dict, c.cfg.workers)
		itemOf = make(map[NodeID]ned.Item, len(items))
		for _, it := range items {
			itemOf[it.Node] = it
		}
	}
	return c.commitBatch("insert", fresh, func(ep *shardEpoch, vs []NodeID) shardEdit {
		var added []NodeID
		for _, v := range vs {
			if !ep.has(v) { // else another Insert won the race for this node
				added = append(added, v)
			}
		}
		if len(added) == 0 {
			return shardEdit{}
		}
		if ep.members != nil {
			ne := ep.clone()
			for _, v := range added {
				ne.members[v] = true
			}
			return shardEdit{next: ne}
		}
		ups := make([]ned.Item, len(added))
		for i, v := range added {
			ups[i] = itemOf[v]
		}
		return splice(ep, ups, nil)
	})
}

// Remove deletes nodes from the indexed set. Nodes that are not
// indexed are ignored, so Remove is idempotent and never errors on a
// healthy corpus — a churn workload can replay removals without
// bookkeeping. Each owning shard gets a compacted successor epoch;
// queries never wait, and
// shards the batch does not touch are never locked. Remove runs
// concurrently with queries, Inserts, and other Removes.
func (c *Corpus) Remove(nodes ...NodeID) error {
	if err := c.degradedErr(); err != nil {
		return err
	}
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	return c.commitBatch("remove", nodes, func(ep *shardEpoch, vs []NodeID) shardEdit {
		var gone []NodeID
		for _, v := range vs {
			if ep.has(v) {
				gone = append(gone, v)
			}
		}
		if len(gone) == 0 {
			return shardEdit{}
		}
		if ep.members != nil {
			ne := ep.clone()
			for _, v := range gone {
				delete(ne.members, v)
			}
			return shardEdit{next: ne, dels: gone}
		}
		return splice(ep, nil, gone)
	})
}

// shardEdit is one shard's prepared change: its successor epoch (nil for
// no change), the items it upserted and the nodes it deleted — the
// shard's share of the WAL record — and the bytes preparing it copied.
type shardEdit struct {
	next   *shardEpoch
	ups    []ned.Item
	dels   []NodeID
	copied int64
}

// commitBatch is the Insert/Remove commit: lock the shards owning nodes
// in ascending slot order (so concurrent batches cannot deadlock, and
// batches on disjoint shards prepare concurrently), let prepare build
// each locked shard's edit, then commit the whole call — one WAL record,
// one view store. A failed commit publishes nothing. Callers hold gmu's
// read side.
func (c *Corpus) commitBatch(op string, nodes []NodeID, prepare func(ep *shardEpoch, vs []NodeID) shardEdit) error {
	view := c.view.Load()
	groups := make(map[int][]NodeID)
	for _, v := range nodes {
		si := view.shardOf(v)
		groups[si] = append(groups[si], v)
	}
	slots := make([]int, 0, len(groups))
	for si := range groups {
		slots = append(slots, si)
	}
	sort.Ints(slots)
	for _, si := range slots {
		sh := view.shards[si]
		sh.lockTimed()
		defer sh.mu.Unlock()
	}
	view = c.view.Load() // the locked shards' epochs cannot move now
	edits := make(map[int]shardEdit, len(slots))
	var rec segment.Record
	for _, si := range slots {
		e := prepare(view.eps[si], groups[si])
		if e.next == nil {
			continue
		}
		edits[si] = e
		rec.Upserts = append(rec.Upserts, e.ups...)
		rec.Deletes = append(rec.Deletes, e.dels...)
	}
	return c.commitEdits(op, view, rec, edits, nil)
}

// commitEdits commits one mutation call's shard edits — one WAL record,
// one view store that also applies extra when non-nil — and records
// the mutations of materialized shards in their contention counters.
func (c *Corpus) commitEdits(op string, view *corpusView, rec segment.Record, edits map[int]shardEdit, extra func(nv *corpusView)) error {
	if len(edits) == 0 && extra == nil {
		return nil
	}
	if err := c.commit(rec, func(nv *corpusView) {
		if extra != nil {
			extra(nv)
		}
		for si, e := range edits {
			nv.eps[si] = e.next
		}
	}); err != nil {
		return fmt.Errorf("ned: %s: %w", op, err)
	}
	for si, e := range edits {
		if e.next.members == nil {
			view.shards[si].noteMutation(len(e.ups)+len(e.dels), e.copied)
		}
	}
	return nil
}

// splice prepares the successor of a materialized epoch with dels
// removed and ups upserted (an upsert of an indexed node replaces its
// item). A built shard's scan splices itself, sharing its base; a
// staged shard copies its map.
func splice(ep *shardEpoch, ups []ned.Item, dels []NodeID) shardEdit {
	e := shardEdit{ups: ups, dels: dels}
	if ep.ix != nil {
		var ix ned.ItemIndex
		ix, e.copied = ep.ix.Splice(ups, dels)
		e.next = &shardEpoch{ix: ix}
		return e
	}
	e.next = ep.clone()
	for _, v := range dels {
		delete(e.next.staged, v)
	}
	for _, it := range ups {
		e.next.staged[it.Node] = it
	}
	e.copied = int64(len(e.next.staged)) * stagedEntryBytes
	return e
}

// stagedEntryBytes is what copying one staged map entry costs.
const stagedEntryBytes = int64(unsafe.Sizeof(NodeID(0)) + unsafe.Sizeof(ned.Item{}))

// Rebuild forces the materialization and index build a first query
// would have paid for. On a built corpus it does nothing: a scan folds
// its delta inline, so nothing is left to rebuild.
func (c *Corpus) Rebuild() { c.acquire() }

// UpdateGraph moves the corpus to a new version of its graph (graphs
// are immutable, so an evolving network is a sequence of builds). It
// diffs the edge sets, finds the indexed nodes whose k-adjacent trees
// the changes can actually reach — a node's signature depends only on
// edges among nodes within k-1 hops, in either version — and
// re-extracts just those signatures; every other node keeps its cached
// tree and AHU encoding untouched. Indexed nodes beyond the new
// graph's node range are removed; nodes new to the graph are not
// auto-indexed (Insert them explicitly). It returns how many
// signatures were refreshed.
//
// The new graph must keep the old one's directedness. Corpora loaded
// without WithGraph have no version to diff against and fail with
// ErrNoGraph.
//
// The expensive work — the edge diff, the reachability sweeps, the
// parallel re-extraction — happens on private successor epochs, so
// queries keep serving the old version through it; the new graph and
// every refreshed shard then become visible together, in one store
// (after one WAL record on a durable corpus: a failed append leaves the
// corpus on the old version). UpdateGraph holds the engine's write gate, serializing against other
// UpdateGraphs, Inserts, Removes, and the lazy build (never against
// queries).
func (c *Corpus) UpdateGraph(g *Graph) (refreshed int, err error) {
	if g == nil {
		return 0, ErrNilGraph
	}
	if err := c.degradedErr(); err != nil {
		return 0, err
	}
	c.gmu.Lock()
	defer c.gmu.Unlock()
	view := c.view.Load()
	old := view.g
	if old == nil {
		return 0, fmt.Errorf("%w: UpdateGraph needs the previous graph version (restore with WithGraph)", ErrNoGraph)
	}
	if g.Directed() != old.Directed() {
		return 0, fmt.Errorf("ned: graph update changes directedness (corpus graph directed=%v)", old.Directed())
	}
	swap := func(nv *corpusView) { nv.g = g }
	edits := make(map[int]shardEdit)
	if !c.materialized.Load() {
		// Nothing extracted yet: the lazy build reads whatever graph is
		// current, so the update is just a swap plus a membership shrink.
		for si, ep := range view.eps {
			for v := range ep.members {
				if int(v) >= g.NumNodes() {
					if edits[si].next == nil {
						edits[si] = shardEdit{next: ep.clone()}
					}
					delete(edits[si].next.members, v)
				}
			}
		}
		return 0, c.commitEdits("graph update", view, segment.Record{}, edits, swap)
	}

	var refresh []NodeID
	for v := range affectedByUpdate(old, g, c.k, c.cfg.directed) {
		if int(v) >= 0 && int(v) < g.NumNodes() && view.epochOf(v).has(v) {
			refresh = append(refresh, v)
		}
	}
	items := ned.BuildProfiledItems(g, refresh, c.k, c.cfg.directed, c.dict, c.cfg.workers)
	upsByShard := make(map[int][]ned.Item)
	for _, it := range items {
		si := view.shardOf(it.Node)
		upsByShard[si] = append(upsByShard[si], it)
	}
	var rec segment.Record
	for si, ep := range view.eps {
		var gone []NodeID
		for it := range ep.items() {
			if int(it.Node) >= g.NumNodes() {
				gone = append(gone, it.Node)
			}
		}
		ups := upsByShard[si]
		if len(gone)+len(ups) == 0 {
			continue
		}
		edits[si] = splice(ep, ups, gone)
		rec.Upserts = append(rec.Upserts, ups...)
		rec.Deletes = append(rec.Deletes, gone...)
	}
	if err := c.commitEdits("graph update", view, rec, edits, swap); err != nil {
		return 0, err
	}
	if c.wal.Load() != nil {
		// The WAL records item churn, not graph swaps; only a checkpoint
		// segment embeds the graph. Cut one now so a crash after this
		// update recovers onto the new graph version, not the old one.
		if err := c.Checkpoint(); err != nil {
			return len(items), fmt.Errorf("ned: graph update checkpoint: %w", err)
		}
	}
	return len(items), nil
}

// affectedByUpdate returns the nodes whose k-adjacent trees can differ
// between two graph versions. A signature T(v, k) contains an edge
// (u, w) only when u or w sits within k-1 hops of v (tree edges join
// depths d and d+1 with d <= k-1), so the affected set is everything
// within k-1 hops of a changed edge's endpoints — in the old version
// (removals prune subtrees that were there) or the new one (additions
// attach subtrees that were not). For directed NED the incoming and
// outgoing trees cover both traversal directions. The bound is exact
// for reachability, conservative for content: a node inside it may
// happen to keep an identical tree, and refreshing it is merely
// harmless work.
func affectedByUpdate(old, new *Graph, k int, directed bool) map[NodeID]bool {
	diff := graph.EdgeDiff(old, new)
	if len(diff) == 0 {
		return nil
	}
	eps := make([]NodeID, 0, 2*len(diff))
	seen := make(map[NodeID]bool, 2*len(diff))
	for _, e := range diff {
		for _, v := range [2]NodeID{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				eps = append(eps, v)
			}
		}
	}
	affected := make(map[NodeID]bool)
	collect := func(g *Graph, dir graph.EdgeDirection) {
		for _, v := range graph.NodesWithin(g, eps, k-1, dir) {
			affected[v] = true
		}
	}
	// The (out-)tree of v reaches an endpoint via outgoing hops, so the
	// sweep from the endpoints follows incoming edges; the incoming tree
	// of directed NED mirrors it. Undirected graphs collapse the two.
	collect(old, graph.Incoming)
	collect(new, graph.Incoming)
	if directed {
		collect(old, graph.Outgoing)
		collect(new, graph.Outgoing)
	}
	return affected
}
