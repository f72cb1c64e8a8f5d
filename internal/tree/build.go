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
	labels []int32
	kids   []int32
	run    []int32
	count  []int32
	big    []int32
}

// NewRowBuilder returns a builder of the rows of k-adjacent trees,
// with in-trees when directed.
func (in *Interner) NewRowBuilder(k int, directed bool) *RowBuilder {
	b := &RowBuilder{k: k, dict: in, sc: newProfileScratch().prime(in), out: in.buildArena(k, nil)}
	if directed {
		b.in = in.buildArena(k, nil)
	}
	return b
}

// buildArena is an empty arena for the rows of k-adjacent trees, with
// the room the rows of last, an arena it built before, took.
func (in *Interner) buildArena(k int, last *ProfileArena) *ProfileArena {
	var a *ProfileArena
	if last == nil {
		a = sized(max(k, 0)+1, 0, 0, 1, 0, 0)
	} else {
		a = sized(last.Width, last.N, last.Degs.Len(), last.Degs.Width, len(last.Words), last.N/8)
	}
	a.Dict = in
	return a
}

// Add appends the rows of the given nodes of g, in order: each tree is
// labelled as soon as it is walked.
func (b *RowBuilder) Add(g *graph.Graph, nodes []graph.NodeID) {
	ws := bfsWorkspaces.Get().(*graph.BFSWorkspace)
	for _, v := range nodes {
		childOff, levelOff := ws.Shape(g, v, b.k, graph.Outgoing)
		b.add(b.out, levelOff, childOff)
		if b.in != nil {
			childOff, levelOff = ws.Shape(g, v, b.k, graph.Incoming)
			b.add(b.in, levelOff, childOff)
		}
	}
	bfsWorkspaces.Put(ws)
}

// Rows returns the arenas of the rows added since the last call — the
// out-trees' and, when directed, the in-trees' (nil otherwise) — and
// starts afresh, in arenas with the room these took.
func (b *RowBuilder) Rows() (out, in *ProfileArena) {
	out, b.out = b.out, b.dict.buildArena(b.k, b.out)
	if b.in != nil {
		in, b.in = b.in, b.dict.buildArena(b.k, b.in)
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
	a.Words = appendUvarint(reserve(a.Words, 5*(inner+1)), uint32(inner))
	a.Words = AppendWords(a.Words, b.labels)
	a.WordOff = append(a.WordOff, int32(len(a.Words)))
	a.N++
}

// appendDegrees appends the child counts of levels 1…h−1 of the tree
// with child offsets childOff and level starts levelOff to a's degree
// runs, each level's ascending: a counting sort per level over the
// counts below the level's width, and a comparison sort of the few at
// or above it, which all follow. The arena's runs are widened first when
// a count needs it.
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
		if top := run[n-1]; degreeWidth(top) > a.Degs.Width {
			wide := makeDegrees(degreeWidth(top), 2*a.Degs.Cap())
			wide.Append(a.Degs)
			a.Degs = wide
		}
		a.Degs.Append(Degrees{Width: 4, I32: run})
	}
}
