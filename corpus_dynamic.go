package ned

import (
	"fmt"
	"slices"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
)

// This file is the mutation surface of the Corpus: incremental node
// churn (Insert/Remove) and graph-version updates that re-extract only
// the signatures an edit actually affected. The paper pitches NED for
// evolving networks (de-anonymization and similarity search against
// graphs that change over time); without this layer any churn forced a
// full re-index.
//
// Every mutation call follows one protocol: prepare a private successor
// scan (one that shares its predecessor's base and carries a new delta —
// O(change) copied, plus an inline fold once the delta passes a fixed
// fraction of the corpus), append one WAL record for the call on a
// durable corpus, and publish the successor with one store of the
// corpus view. The call is visible whole or not
// at all; queries never wait: in-flight readers keep the view they
// loaded.
//
// Invariant, enforced by the churn- and equivalence suites: after any
// interleaving of mutations, every query answers exactly as a corpus
// freshly built over the same live node set would.

// Insert adds nodes of the corpus graph to the indexed set. Nodes
// already indexed are skipped, so Insert is idempotent; out-of-range
// nodes fail with ErrNodeOutOfRange before anything is mutated, and
// corpora loaded without WithGraph fail with ErrNoGraph (there is no
// graph to extract signatures from).
//
// The new signatures are extracted in parallel — outside the write
// lock, so queries and other mutations proceed during the BFS work — and
// spliced into the scan. Insert holds the engine's read gate for its
// span, so it excludes UpdateGraph (the graph version cannot move
// under the extraction) but runs concurrently with queries, Removes,
// and other Inserts.
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
		if batch[v] || view.scan.Has(v) {
			continue
		}
		batch[v] = true
		fresh = append(fresh, v)
	}
	if len(fresh) == 0 {
		return nil
	}
	// Extract signatures outside the write lock (the expensive part).
	slices.Sort(fresh)
	rows := ned.BuildRows(g, fresh, c.k, c.cfg.directed, c.dict, c.cfg.workers)
	return c.commitWrite("insert", func(scan *ned.Scan) scanEdit {
		var added []NodeID
		for _, v := range fresh {
			if !scan.Has(v) { // else another Insert won the race for this node
				added = append(added, v)
			}
		}
		if len(added) == 0 {
			return scanEdit{}
		}
		// The record names the nodes: replay re-extracts their items from
		// the log's graph, which is this call's graph.
		next, copied := scan.Splice(rows.Only(added), nil)
		return scanEdit{next: next, rec: segment.Record{Extract: added}, copied: copied}
	})
}

// Remove deletes nodes from the indexed set. Nodes that are not
// indexed are ignored, so Remove is idempotent and never errors on a
// healthy corpus — a churn workload can replay removals without
// bookkeeping. The scan gets a successor with the nodes tombstoned;
// queries never wait. Remove runs concurrently with queries, Inserts,
// and other Removes.
func (c *Corpus) Remove(nodes ...NodeID) error {
	if err := c.degradedErr(); err != nil {
		return err
	}
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	return c.commitWrite("remove", func(scan *ned.Scan) scanEdit {
		var gone []NodeID
		for _, v := range nodes {
			if scan.Has(v) {
				gone = append(gone, v)
			}
		}
		if len(gone) == 0 {
			return scanEdit{}
		}
		next, copied := scan.Splice(nil, gone)
		return scanEdit{next: next, rec: segment.Record{Deletes: gone}, copied: copied}
	})
}

// scanEdit is one mutation call's prepared change: the successor scan
// (nil for no change), the call's WAL record, and the bytes preparing
// it copied.
type scanEdit struct {
	next   *ned.Scan
	rec    segment.Record
	copied int64
}

// commitWrite is the Insert/Remove commit: under the write lock, let
// prepare build the edit of the current scan, then commit it. A failed
// commit publishes nothing. Callers hold gmu's read side.
func (c *Corpus) commitWrite(op string, prepare func(scan *ned.Scan) scanEdit) error {
	c.lockWrites()
	defer c.wmu.Unlock()
	view := c.view.Load() // cannot move while wmu is held
	e := prepare(view.scan)
	if e.next == nil {
		return nil
	}
	return c.commitEdit(op, view.g, e)
}

// commitEdit commits one mutation call — one WAL record, one view store
// of e.next over graph g — and records it in the contention counters.
func (c *Corpus) commitEdit(op string, g *Graph, e scanEdit) error {
	if err := c.commit(e.rec, &corpusView{g: g, scan: e.next}); err != nil {
		return fmt.Errorf("ned: %s: %w", op, err)
	}
	c.mutations.Add(int64(len(e.rec.Extract) + len(e.rec.Deletes)))
	c.cloneBytes.Add(e.copied)
	return nil
}

// Rebuild does nothing. A corpus is built when it is made, and its scan
// folds its delta inline, so nothing is ever left to rebuild; the method
// stays for callers written when the first query built the corpus.
func (c *Corpus) Rebuild() {}

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
// parallel re-extraction — happens on a private successor scan, so
// queries keep serving the old version through it; the new graph and
// the refreshed items then become visible together, in one store. On a
// durable corpus one WAL record precedes that store: the edge diff, the
// new node count, and the refreshed and removed nodes — proportional to
// the change, not the corpus — from which recovery rebuilds the graph
// and re-extracts the refreshed signatures. A failed append leaves the
// corpus on the old version. UpdateGraph holds the engine's write gate,
// serializing against other UpdateGraphs, Inserts and Removes (never
// against queries).
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
	removed, added := graph.EdgeDiff(old, g)
	var refresh []NodeID
	for v := range affectedByUpdate(old, g, removed, added, c.k, c.cfg.directed) {
		if int(v) >= 0 && int(v) < g.NumNodes() && view.scan.Has(v) {
			refresh = append(refresh, v)
		}
	}
	slices.Sort(refresh)
	rows := ned.BuildRows(g, refresh, c.k, c.cfg.directed, c.dict, c.cfg.workers)
	var gone []NodeID
	for v := range nodesOf(view.scan) {
		if int(v) >= g.NumNodes() {
			gone = append(gone, v)
		}
	}
	e := scanEdit{next: view.scan, rec: segment.Record{Extract: refresh, Deletes: gone, Graph: graphEdit(old, g, removed, added)}}
	if len(gone)+rows.Len() > 0 {
		e.next, e.copied = view.scan.Splice(rows, gone)
	}
	if err := c.commitEdit("graph update", g, e); err != nil {
		return 0, err
	}
	return rows.Len(), nil
}

// graphEdit is the logged form of the move from old to new given their
// edge diff: nil when the versions are equal. Removed edges touching a
// node the new version drops are implied by its node count and left
// out.
func graphEdit(old, new *Graph, removed, added []graph.Edge) *segment.GraphEdit {
	n := new.NumNodes()
	if n == old.NumNodes() && len(removed)+len(added) == 0 {
		return nil
	}
	kept := removed[:0:0]
	for _, e := range removed {
		if int(e.U) < n && int(e.V) < n {
			kept = append(kept, e)
		}
	}
	return &segment.GraphEdit{NumNodes: n, Removed: kept, Added: added}
}

// affectedByUpdate returns the nodes whose k-adjacent trees can differ
// between two graph versions, given their edge diff. A signature T(v, k)
// contains an edge (u, w) only when u or w sits within k-1 hops of v
// (tree edges join depths d and d+1 with d <= k-1), so the affected set
// is everything within k-1 hops of a changed edge's endpoints — in the
// old version (removals prune subtrees that were there) or the new one
// (additions attach subtrees that were not). For directed NED the
// incoming and outgoing trees cover both traversal directions. The bound
// is exact for reachability, conservative for content: a node inside it
// may happen to keep an identical tree, and refreshing it is merely
// harmless work.
func affectedByUpdate(old, new *Graph, removed, added []graph.Edge, k int, directed bool) map[NodeID]bool {
	if len(removed)+len(added) == 0 {
		return nil
	}
	eps := make([]NodeID, 0, 2*(len(removed)+len(added)))
	seen := make(map[NodeID]bool, cap(eps))
	for _, e := range slices.Concat(removed, added) {
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
