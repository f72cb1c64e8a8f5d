package graph

import "sort"

// EdgeDirection selects which arcs a directed traversal follows.
type EdgeDirection int

const (
	// Outgoing follows u->v arcs (or all edges in undirected graphs).
	Outgoing EdgeDirection = iota
	// Incoming follows v->u arcs (identical to Outgoing when undirected).
	Incoming
)

// BFSResult holds a breadth-first traversal rooted at Root. Parent[Root]
// is -1, and Parent[v] is -1 for unreached nodes with Depth[v] == -1.
type BFSResult struct {
	Root   NodeID
	Order  []NodeID // visitation order, starting with Root
	Parent []NodeID // BFS tree parent per node, -1 if none
	Depth  []int32  // hop distance from Root, -1 if unreached
}

// BFS runs breadth-first search from root up to maxDepth levels below the
// root (maxDepth < 0 means unbounded). The neighbor ordering of the
// underlying graph makes the traversal deterministic.
//
// BFS is the dense form: it allocates and fills two |V|-sized arrays per
// call, which suits whole-graph statistics and KHopSubgraph. Signature
// extraction does not use it; it runs BFSWorkspace.Tree, which visits
// the same nodes in the same order at O(tree) cost.
func BFS(g *Graph, root NodeID, maxDepth int, dir EdgeDirection) *BFSResult {
	n := g.NumNodes()
	res := &BFSResult{
		Root:   root,
		Parent: make([]NodeID, n),
		Depth:  make([]int32, n),
	}
	for i := range res.Parent {
		res.Parent[i] = -1
		res.Depth[i] = -1
	}
	res.Depth[root] = 0
	res.Order = append(res.Order, root)
	for head := 0; head < len(res.Order); head++ {
		u := res.Order[head]
		if maxDepth >= 0 && int(res.Depth[u]) >= maxDepth {
			continue
		}
		var ns []NodeID
		if dir == Incoming {
			ns = g.InNeighbors(u)
		} else {
			ns = g.OutNeighbors(u)
		}
		for _, v := range ns {
			if res.Depth[v] == -1 {
				res.Depth[v] = res.Depth[u] + 1
				res.Parent[v] = u
				res.Order = append(res.Order, v)
			}
		}
	}
	return res
}

// BFSWorkspace is the reusable scratch of a bounded breadth-first
// traversal: a generation-stamped visited array (one word per graph
// node, cleared only when the generation counter wraps) plus the queue
// and parent buffers. A traversal touches only the nodes it visits, so
// one costs O(nodes visited + their adjacency), not O(|V|). The zero
// value is ready, and one workspace serves graphs of any size, growing
// to the largest it has seen. Not safe for concurrent use; pool them.
type BFSWorkspace struct {
	seen   []uint32 // seen[v] == gen iff v was visited by the current traversal
	gen    uint32
	queue  []NodeID
	parent []int32
}

// Tree runs the traversal of BFS(g, root, maxDepth, dir) and returns its
// tree over visitation positions: order[i] is the i-th node visited
// (order[0] == root), parent[0] == -1, and parent[i] is the position of
// order[i]'s BFS parent, so parent is non-decreasing and already in
// level order. height is the depth of the last node visited. Both slices
// alias the workspace and stay valid until its next use.
func (w *BFSWorkspace) Tree(g *Graph, root NodeID, maxDepth int, dir EdgeDirection) (parent []int32, order []NodeID, height int) {
	if n := g.NumNodes(); len(w.seen) < n {
		w.seen, w.gen = make([]uint32, n), 0
	}
	if w.gen++; w.gen == 0 {
		clear(w.seen)
		w.gen = 1
	}
	gen, seen := w.gen, w.seen
	seen[root] = gen
	queue := append(w.queue[:0], root)
	parent = append(w.parent[:0], -1)
	depth, levelEnd := 0, 1
	for head := 0; head < len(queue); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(queue)
		}
		if maxDepth >= 0 && depth >= maxDepth {
			break // every node still queued sits at maxDepth
		}
		var ns []NodeID
		if dir == Incoming {
			ns = g.InNeighbors(queue[head])
		} else {
			ns = g.OutNeighbors(queue[head])
		}
		for _, v := range ns {
			if seen[v] != gen {
				seen[v] = gen
				queue = append(queue, v)
				parent = append(parent, int32(head))
			}
		}
	}
	w.queue, w.parent = queue, parent
	return parent, queue, depth
}

// NodesWithin returns every node within k hops of any source, in
// ascending order — a multi-source bounded BFS. Sources themselves are
// included (distance 0). Out-of-range sources are ignored, so callers
// may pass node sets from a differently-sized graph version.
func NodesWithin(g *Graph, sources []NodeID, k int, dir EdgeDirection) []NodeID {
	n := g.NumNodes()
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	var order []NodeID
	for _, s := range sources {
		if int(s) < 0 || int(s) >= n || depth[s] != -1 {
			continue
		}
		depth[s] = 0
		order = append(order, s)
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		if int(depth[u]) >= k {
			continue
		}
		var ns []NodeID
		if dir == Incoming {
			ns = g.InNeighbors(u)
		} else {
			ns = g.OutNeighbors(u)
		}
		for _, v := range ns {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				order = append(order, v)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// EdgeDiff returns how the edge set changed from version a to version
// b: the edges only a has (removed) and the edges only b has (added),
// each in Edges() order. Both Edges() listings are sorted, so the diff
// is a linear merge. Used by the dynamic corpus to find which node
// neighborhoods an update actually changed, and to log the change.
func EdgeDiff(a, b *Graph) (removed, added []Edge) {
	ea, eb := a.Edges(), b.Edges()
	less := func(x, y Edge) bool {
		if x.U != y.U {
			return x.U < y.U
		}
		return x.V < y.V
	}
	i, j := 0, 0
	for i < len(ea) && j < len(eb) {
		switch {
		case ea[i] == eb[j]:
			i++
			j++
		case less(ea[i], eb[j]):
			removed = append(removed, ea[i])
			i++
		default:
			added = append(added, eb[j])
			j++
		}
	}
	return append(removed, ea[i:]...), append(added, eb[j:]...)
}

// Patch returns the version of g with n nodes whose edges are g's minus
// removed plus added, keeping g's directedness. Edges of g touching a
// node at or beyond n leave with it. Patching is idempotent: a second
// application of the same edit to the result changes nothing. Endpoints
// of added must lie in [0, n).
func Patch(g *Graph, n int, removed, added []Edge) *Graph {
	canon := func(e Edge) Edge {
		if !g.directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		return e
	}
	gone := make(map[Edge]bool, len(removed))
	for _, e := range removed {
		gone[canon(e)] = true
	}
	b := NewBuilder(n, g.directed)
	for _, e := range g.Edges() {
		if int(e.U) < n && int(e.V) < n && !gone[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	for _, e := range added {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// ConnectedComponents labels every node of an undirected graph with a
// component index and returns (labels, count). Directed graphs are
// treated as undirected (weak components) only if their reverse
// adjacency is consulted, which this function does.
func ConnectedComponents(g *Graph) ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []NodeID
	count := 0
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = int32(count)
		queue = append(queue[:0], NodeID(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.OutNeighbors(u) {
				if comp[v] == -1 {
					comp[v] = int32(count)
					queue = append(queue, v)
				}
			}
			if g.directed {
				for _, v := range g.InNeighbors(u) {
					if comp[v] == -1 {
						comp[v] = int32(count)
						queue = append(queue, v)
					}
				}
			}
		}
		count++
	}
	return comp, count
}

// LargestComponent returns the node set of the largest connected
// component in deterministic (ascending) order.
func LargestComponent(g *Graph) []NodeID {
	comp, count := ConnectedComponents(g)
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	out := make([]NodeID, 0, sizes[best])
	for v, c := range comp {
		if int(c) == best {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// KHopSubgraph extracts the induced subgraph on all nodes within k hops
// of root. It returns the subgraph, the root's new ID (always 0), and the
// mapping from new IDs back to original IDs. Used by the exact-GED
// baseline (§8 of the paper compares k-hop subgraphs).
func KHopSubgraph(g *Graph, root NodeID, k int) (*Graph, NodeID, []NodeID) {
	res := BFS(g, root, k, Outgoing)
	oldToNew := make(map[NodeID]NodeID, len(res.Order))
	newToOld := make([]NodeID, len(res.Order))
	for i, v := range res.Order {
		oldToNew[v] = NodeID(i)
		newToOld[i] = v
	}
	b := NewBuilder(len(res.Order), g.directed)
	for _, u := range res.Order {
		for _, v := range g.OutNeighbors(u) {
			nv, ok := oldToNew[v]
			if !ok {
				continue
			}
			nu := oldToNew[u]
			if g.directed || nu < nv {
				b.AddEdge(nu, nv)
			}
		}
	}
	return b.Build(), 0, newToOld
}
