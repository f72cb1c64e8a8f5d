package tree

import (
	"slices"
	"sync"

	"ned/internal/graph"
)

// KAdjacent extracts the unordered k-adjacent tree T(v, k) of Definition 1:
// the breadth-first search tree rooted at v, truncated to the root plus k
// levels of neighbors (depths 0..k). The extraction is deterministic
// because graph adjacency lists are sorted.
//
// The returned tree's node 0 corresponds to v; the mapping from tree node
// IDs back to graph node IDs is also returned.
func KAdjacent(g *graph.Graph, v graph.NodeID, k int) (*Tree, []graph.NodeID) {
	return kAdjacent(g, v, k, graph.Outgoing, true)
}

// KAdjacentIncoming extracts the incoming k-adjacent tree TI(v, k) of
// Definition 2: the BFS tree of v following incoming edges only.
// For undirected graphs it equals KAdjacent.
func KAdjacentIncoming(g *graph.Graph, v graph.NodeID, k int) (*Tree, []graph.NodeID) {
	return kAdjacent(g, v, k, graph.Incoming, true)
}

// KAdjacentOutgoing extracts the outgoing k-adjacent tree TO(v, k):
// the BFS tree of v following outgoing edges only.
func KAdjacentOutgoing(g *graph.Graph, v graph.NodeID, k int) (*Tree, []graph.NodeID) {
	return kAdjacent(g, v, k, graph.Outgoing, true)
}

// Extract is KAdjacentOutgoing or KAdjacentIncoming (by dir) for callers
// that never read the tree-to-graph node mapping, which it does not
// allocate: the query tree of a KNN by node and of ned.Between.
func Extract(g *graph.Graph, v graph.NodeID, k int, dir graph.EdgeDirection) *Tree {
	t, _ := kAdjacent(g, v, k, dir, false)
	return t
}

// bfsWorkspaces pools the traversal scratch of kAdjacent: each holds a
// visited array as large as the largest graph it has walked, reused
// across extractions instead of allocated per tree.
var bfsWorkspaces = sync.Pool{New: func() any { return new(graph.BFSWorkspace) }}

// kAdjacent is the one extraction path to a Tree. The pooled
// workspace's bounded BFS touches only the nodes within k hops and
// yields the tree's level starts and child offsets in visitation
// (level) order, which the tree copies as they are — a BFS tree needs
// no validation: the only allocations are the returned tree — its level
// and child offsets in one block — and, when withOrder, the node
// mapping.
func kAdjacent(g *graph.Graph, v graph.NodeID, k int, dir graph.EdgeDirection, withOrder bool) (*Tree, []graph.NodeID) {
	w := bfsWorkspaces.Get().(*graph.BFSWorkspace)
	defer bfsWorkspaces.Put(w)
	var childOff, levelOff []int32
	var order []graph.NodeID
	if withOrder {
		childOff, levelOff, order = w.Tree(g, v, k, dir)
	} else {
		childOff, levelOff = w.Shape(g, v, k, dir)
	}
	cols := make([]int32, len(levelOff)+len(childOff))
	copy(cols, levelOff)
	copy(cols[len(levelOff):], childOff)
	t := NewBFS(cols[len(levelOff):], cols[:len(levelOff):len(levelOff)])
	if !withOrder {
		return t, nil
	}
	return t, slices.Clone(order)
}
