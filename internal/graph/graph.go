// Package graph provides the graph substrate used throughout the NED
// reproduction: compact adjacency-list graphs (undirected and directed),
// breadth-first traversal, k-hop neighborhood extraction, and edge-list
// serialization compatible with SNAP/KONECT datasets.
//
// Node identifiers are dense non-negative integers in [0, N). Graphs are
// simple: self-loops and parallel edges are rejected at construction time
// by Builder and ignored by the tolerant loaders.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID identifies a node within a single graph. IDs are dense: a graph
// with N nodes uses exactly the IDs 0..N-1.
type NodeID int32

// Edge is an unordered (undirected) or ordered (directed) node pair.
type Edge struct {
	U, V NodeID
}

// Graph is an immutable simple graph held in compressed adjacency form.
// For undirected graphs every edge appears in both endpoint adjacency
// lists. For directed graphs Out holds successors and In holds
// predecessors. The zero value is an empty undirected graph.
type Graph struct {
	directed bool
	numEdges int

	// CSR layout: neighbors of node i are adj[offsets[i]:offsets[i+1]].
	offsets []int32
	adj     []NodeID

	// Directed graphs additionally carry the reverse adjacency.
	inOffsets []int32
	inAdj     []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of edges (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.numEdges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Neighbors returns the adjacency list of v. For directed graphs it
// returns the out-neighbors. The returned slice aliases internal storage
// and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// OutNeighbors returns successors of v (same as Neighbors).
func (g *Graph) OutNeighbors(v NodeID) []NodeID { return g.Neighbors(v) }

// InNeighbors returns predecessors of v. For undirected graphs it is the
// same as Neighbors. The returned slice aliases internal storage.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	if !g.directed {
		return g.Neighbors(v)
	}
	return g.inAdj[g.inOffsets[v]:g.inOffsets[v+1]]
}

// Degree returns the degree of v (out-degree for directed graphs).
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int {
	if !g.directed {
		return g.Degree(v)
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// HasEdge reports whether the edge (u,v) exists. For undirected graphs
// orientation is ignored. Runs in O(log deg(u)) thanks to sorted
// adjacency lists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// Edges returns all edges. Undirected edges are reported once with U < V;
// directed edges are reported as (source, target).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if g.directed || NodeID(u) < v {
				out = append(out, Edge{NodeID(u), v})
			}
		}
	}
	return out
}

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean degree: 2E/N undirected, E/N directed.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	m := float64(g.numEdges)
	if !g.directed {
		m *= 2
	}
	return m / float64(n)
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, %d nodes, %d edges}", kind, g.NumNodes(), g.numEdges)
}

// Builder accumulates edges and produces an immutable Graph. It
// deduplicates parallel edges and drops self-loops, so it is safe to feed
// raw dataset rows. The zero value builds an undirected graph.
type Builder struct {
	directed bool
	numNodes int
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{directed: directed, numNodes: n}
}

// AddEdge records the edge (u,v). Out-of-range endpoints grow the node
// count; self-loops are ignored.
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if int(u) >= b.numNodes {
		b.numNodes = int(u) + 1
	}
	if int(v) >= b.numNodes {
		b.numNodes = int(v) + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.numNodes }

// CompareEdges is the canonical edge order: by U, then by V.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// Build produces the immutable Graph. The Builder can be reused afterward.
func (b *Builder) Build() *Graph {
	n := b.numNodes
	// Canonicalize and deduplicate.
	es := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		if !b.directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es = append(es, e)
	}
	// A segment's graph section, among others, arrives in this order
	// already.
	if !slices.IsSortedFunc(es, CompareEdges) {
		slices.SortFunc(es, CompareEdges)
	}
	dedup := es[:0]
	for i, e := range es {
		if i > 0 && e == es[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	es = dedup

	g := &Graph{directed: b.directed, numEdges: len(es)}
	deg := make([]int32, n+1)
	for _, e := range es {
		deg[e.U+1]++
		if !b.directed {
			deg[e.V+1]++
		}
	}
	g.offsets = make([]int32, n+1)
	for i := 1; i <= n; i++ {
		g.offsets[i] = g.offsets[i-1] + deg[i]
	}
	g.adj = make([]NodeID, g.offsets[n])
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	// Filling in canonical edge order leaves every list sorted: node v's
	// list gets the u of each edge (u, v) — undirected, u < v — in
	// ascending u, then the w of each edge (v, w) in ascending w; a
	// directed in-list is the first half alone.
	for _, e := range es {
		g.adj[cursor[e.U]] = e.V
		cursor[e.U]++
		if !b.directed {
			g.adj[cursor[e.V]] = e.U
			cursor[e.V]++
		}
	}

	if b.directed {
		ideg := make([]int32, n+1)
		for _, e := range es {
			ideg[e.V+1]++
		}
		g.inOffsets = make([]int32, n+1)
		for i := 1; i <= n; i++ {
			g.inOffsets[i] = g.inOffsets[i-1] + ideg[i]
		}
		g.inAdj = make([]NodeID, g.inOffsets[n])
		icursor := make([]int32, n)
		copy(icursor, g.inOffsets[:n])
		for _, e := range es {
			g.inAdj[icursor[e.V]] = e.U
			icursor[e.V]++
		}
	}
	return g
}

// FromLists builds the graph whose node u stores lists[off[u]:off[u+1]]:
// undirected, its neighbours above u; directed, its out-neighbours. The
// caller guarantees every list is strictly ascending, below the node
// count len(off)-1, and, directed, free of u itself; nothing is sorted
// or deduplicated. A directed graph adopts off and lists as its
// out-adjacency.
func FromLists(directed bool, off []int32, lists []NodeID) *Graph {
	n := len(off) - 1
	g := &Graph{directed: directed, numEdges: len(lists)}
	if directed {
		g.offsets, g.adj = off, lists
		ideg := make([]int32, n+1)
		for _, v := range lists {
			ideg[v+1]++
		}
		for i := 1; i <= n; i++ {
			ideg[i] += ideg[i-1]
		}
		g.inOffsets, g.inAdj = ideg, make([]NodeID, len(lists))
		cursor := slices.Clone(ideg[:n])
		for u := range NodeID(n) {
			for _, v := range lists[off[u]:off[u+1]] {
				g.inAdj[cursor[v]] = u
				cursor[v]++
			}
		}
		return g
	}
	g.offsets = make([]int32, n+1)
	for u := range n {
		g.offsets[u+1] += off[u+1] - off[u]
		for _, v := range lists[off[u]:off[u+1]] {
			g.offsets[v+1]++
		}
	}
	for i := 1; i <= n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	g.adj = make([]NodeID, 2*len(lists))
	// As Build fills in canonical edge order: node u's neighbours below
	// it arrive, ascending, before its own list is walked.
	cursor := slices.Clone(g.offsets[:n])
	for u := range NodeID(n) {
		for _, v := range lists[off[u]:off[u+1]] {
			g.adj[cursor[u]] = v
			cursor[u]++
			g.adj[cursor[v]] = u
			cursor[v]++
		}
	}
	return g
}

// FromEdges builds an undirected graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n, false)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromDirectedEdges builds a directed graph with n nodes from an edge list.
func FromDirectedEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n, true)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
