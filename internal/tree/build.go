package tree

import (
	"slices"

	"ned/internal/graph"
)

// This file is a corpus build's path from a graph to arena rows. A
// row holds a tree's size, level widths, degree runs and stored labels
// (ProfileArena), and each follows from the breadth-first search
// itself: its level starts are the level widths, the child counts it
// takes as it enqueues are the tree's child offsets, the bottom-up
// labelling over them (labelNodes, which Interner.Profile runs too)
// gives the stored labels, and a counting sort per level of the child
// counts gives the degree runs. No Tree and no Profile is made.

// A RowBuilder extracts the k-adjacent trees of graph nodes straight
// into arena rows, labelled against one dictionary: each node's tree
// (its outgoing tree when directed) into one arena and, when directed,
// its incoming tree into another, until Rows hands them over. The
// arenas are as wide as a tree of height k needs, and their degree runs
// as wide as the largest count so far needs; a build compiles them once
// into the rows it keeps (CompileRuns). Labels are interned in the
// order Interner.Profile of each tree would intern them, the out-tree
// before the in-tree, so one builder assigns the IDs the
// extract-then-profile path assigns. Not safe for concurrent use.
type RowBuilder struct {
	out, in *ProfileArena

	k      int
	dict   *Interner
	sc     *profileScratch
	walked []int32 // the trees Add has walked and not yet labelled
	at     []int32 // tree t is walked[at[t]:at[t+1]]

	labelsDone, bytesDone int // stored words written, and their bytes
	labels                []int32
	kids                  []int32
	run                   []int32
	count                 []int32
	big                   []int32
}

// NewRowBuilder returns a builder of the rows of k-adjacent trees,
// with in-trees when directed.
func (in *Interner) NewRowBuilder(k int, directed bool) *RowBuilder {
	b := &RowBuilder{k: k, dict: in, sc: newProfileScratch().prime(in), out: in.buildArena(k)}
	if directed {
		b.in = in.buildArena(k)
	}
	return b
}

// buildArena is an empty arena for the rows of k-adjacent trees.
func (in *Interner) buildArena(k int) *ProfileArena {
	a := sized(max(k, 0)+1, 0, 0, 1, 0, 0)
	a.Dict = in
	return a
}

// Add appends the rows of the given nodes of g, in order. It walks
// every node's trees before it labels any of them, as extracting a
// chunk before profiling it did: which of a build's workers interns
// first decides which shapes get the one-byte labels, and a chunk of
// hubs walks longest, so the first labels go to a chunk of typical
// nodes (a checkpoint of the PGP analog at scale 1 reads 1.3 % smaller
// than when the hub chunk interns first). The walk also tells each
// column's size before a row is written.
func (b *RowBuilder) Add(g *graph.Graph, nodes []graph.NodeID) {
	ws := bfsWorkspaces.Get().(*graph.BFSWorkspace)
	b.walked, b.at = b.walked[:0], append(b.at[:0], 0)
	for _, v := range nodes {
		b.walk(ws, g, v, graph.Outgoing)
		if b.in != nil {
			b.walk(ws, g, v, graph.Incoming)
		}
	}
	bfsWorkspaces.Put(ws)
	sides := []*ProfileArena{b.out}
	if b.in != nil {
		sides = append(sides, b.in)
	}
	for side, a := range sides {
		b.room(a, side, len(sides))
	}
	for t := range len(b.at) - 1 {
		levelOff, childOff := b.tree(t)
		b.add(sides[t%len(sides)], levelOff, childOff)
	}
}

// tree is the t-th walked tree's level starts and child offsets.
func (b *RowBuilder) tree(t int) (levelOff, childOff []int32) {
	cols := b.walked[b.at[t]:b.at[t+1]]
	return cols[1 : cols[0]+1], cols[cols[0]+1:]
}

// room makes room in a for the rows of the walked trees side, side +
// sides, …: every column but the stored words exactly, its degree runs
// at the width their largest count needs, and the words at the bytes a
// label has taken in this builder's rows so far (two to start), an
// eighth more.
func (b *RowBuilder) room(a *ProfileArena, side, sides int) {
	rows, degs, labels, top := 0, 0, 0, int32(0)
	for t := side; t < len(b.at)-1; t += sides {
		levelOff, childOff := b.tree(t)
		h := len(levelOff) - 2
		rows, labels = rows+1, labels+int(levelOff[h])+1
		for v := levelOff[min(1, h)]; v < levelOff[h]; v++ {
			degs, top = degs+1, max(top, childOff[v+1]-childOff[v])
		}
	}
	if w := degreeWidth(top); w > a.Degs.Width {
		wide := makeDegrees(w, a.Degs.Len()+degs)
		wide.Append(a.Degs)
		a.Degs = wide
	}
	perLabel := 2.0
	if b.labelsDone > 0 {
		perLabel = float64(b.bytesDone) / float64(b.labelsDone)
	}
	a.Sizes, a.DegOff, a.WordOff = reserve(a.Sizes, rows), reserve(a.DegOff, rows), reserve(a.WordOff, rows)
	a.Levels = reserve(a.Levels, rows*a.Width)
	a.Degs.reserve(degs)
	a.Words = reserve(a.Words, int(perLabel*float64(labels)*9/8))
}

// walk appends T(v, k) along dir to b.walked: its level count, its level
// starts, then its child offsets.
func (b *RowBuilder) walk(ws *graph.BFSWorkspace, g *graph.Graph, v graph.NodeID, dir graph.EdgeDirection) {
	childOff, levelOff := ws.Shape(g, v, b.k, dir)
	b.walked = append(reserve(b.walked, 1+len(levelOff)+len(childOff)), int32(len(levelOff)))
	b.walked = append(append(b.walked, levelOff...), childOff...)
	b.at = append(b.at, int32(len(b.walked)))
}

// Rows returns the arenas of the rows added since the last call — the
// out-trees' and, when directed, the in-trees' (nil otherwise) — and
// starts afresh.
func (b *RowBuilder) Rows() (out, in *ProfileArena) {
	out, b.out = b.out, b.dict.buildArena(b.k)
	if b.in != nil {
		in, b.in = b.in, b.dict.buildArena(b.k)
	}
	return out, in
}

// add appends to a the row of the tree with level starts levelOff and
// child offsets childOff.
func (b *RowBuilder) add(a *ProfileArena, levelOff, childOff []int32) {
	h := len(levelOff) - 2
	inner := int(levelOff[h])
	n := levelOff[h+1]
	b.labels = grow32(b.labels, inner)
	b.kids = grow32(b.kids, max(inner-1, 0))
	b.sc.labelNodes(b.dict, levelOff, childOff, bfsIDs(int(n)), b.labels, b.kids, false)

	a.Sizes = append(a.Sizes, n)
	for d := range a.Width {
		w := int32(0)
		if d <= h {
			w = levelOff[d+1] - levelOff[d]
		}
		a.Levels = append(a.Levels, w)
	}
	b.appendDegrees(a, childOff, levelOff)
	a.DegOff = append(a.DegOff, int32(a.Degs.Len()))
	at := len(a.Words)
	a.Words = appendUvarint(reserve(a.Words, 5*(inner+1)), uint32(inner))
	a.Words = AppendWords(a.Words, b.labels)
	a.WordOff = append(a.WordOff, int32(len(a.Words)))
	a.N++
	b.labelsDone, b.bytesDone = b.labelsDone+inner+1, b.bytesDone+len(a.Words)-at
}

// appendDegrees appends the child counts of levels 1…h−1 of the tree
// with child offsets childOff and level starts levelOff to a's degree
// runs, each level's ascending: a counting sort per level over the
// counts below the level's width, and a comparison sort of the few at
// or above it, which all follow. The runs are widened first when a count
// needs it.
func (b *RowBuilder) appendDegrees(a *ProfileArena, childOff, levelOff []int32) {
	for d := 1; d < len(levelOff)-2; d++ {
		lo, n := levelOff[d], levelOff[d+1]-levelOff[d]
		count := grow32(b.count, int(n))
		b.count = count
		clear(count)
		big := b.big[:0]
		for v := lo; v < lo+n; v++ {
			c := childOff[v+1] - childOff[v]
			if c < n {
				count[c]++
			} else {
				big = append(big, c)
			}
		}
		b.big = big
		run := grow32(b.run, int(n))
		b.run = run
		at := int32(0)
		for c, k := range count {
			for i := at; i < at+k; i++ {
				run[i] = int32(c)
			}
			at += k
		}
		slices.Sort(big)
		copy(run[at:], big)
		a.Degs.Append(Degrees{Width: 4, I32: run})
	}
}
