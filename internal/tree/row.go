package tree

import (
	"slices"
	"sync"
)

// This file builds an arena row back into the tree and profile the
// verify stage compares: what Interner.Profile compiles for the tree
// the row stores, derived from its stored labels and the dictionary.
// Each label's shape is the node's sorted child labels, so it gives
// the node's child count — in BFS order the child counts are the
// child offsets, which are all a tree stores — and its kid run (Kids);
// a counting sort per level over its distinct labels gives the
// level-sorted Labels and Perm; the level widths and degree runs are the
// arena's own columns.

// RowScratch is the memory one worker builds rows into: the tree and
// profile of the last row built, reused by the next, and its view of
// the dictionary. Not safe for concurrent use.
type RowScratch struct {
	t        Tree
	p        Profile
	words    []int32
	buf      []int32
	distinct []int32
	dict     *Interner
	keys     []byte   // the dictionary's coded keys, as far as sc has seen
	off      []uint32 // shape l's key is keys[off[l]:off[l+1]]
	leaf     int32
}

// Build returns row i's tree and profile in memory of their own.
func (a *ProfileArena) Build(i int) (*Tree, *Profile) { return new(RowScratch).Row(a, i) }

// labelCounts keeps the counts level sorts borrow — an entry per label
// of a dictionary, zero between uses — across collections, as a
// sync.Pool would not: one costs a dictionary's worth of memory to make,
// and a row costs far less to build.
var labelCounts struct {
	sync.Mutex
	free [][]int32
}

// borrowCounts returns zeroed counts for labels below n.
func borrowCounts(n int) []int32 {
	labelCounts.Lock()
	var c []int32
	if k := len(labelCounts.free); k > 0 {
		c, labelCounts.free = labelCounts.free[k-1], labelCounts.free[:k-1]
	}
	labelCounts.Unlock()
	if len(c) < n {
		c = make([]int32, n+n/8)
	}
	return c
}

func returnCounts(c []int32) {
	labelCounts.Lock()
	labelCounts.free = append(labelCounts.free, c)
	labelCounts.Unlock()
}

// Row builds row i of a into sc and returns its tree and profile, valid
// until sc builds the next row: equal, column for column, to what
// a.Dict's Profile compiles for the tree the row stores, and a tree
// equal to that one.
func (sc *RowScratch) Row(a *ProfileArena, i int) (*Tree, *Profile) {
	words := DecodeWords(sc.words[:0], a.Stored(i))
	sc.words = words
	hdr := uint32(words[0])
	m := int(hdr &^ ParentsFlag)
	stored := words[1 : 1+m]
	levels, inner := a.Row(i)
	h := len(levels) - 1
	sc.see(a.Dict, stored)

	// levelOff (h+2), childOff (m+1), then the profile's Labels, Perm and
	// Degs (m each) and Kids (m-1).
	nk := max(m-1, 0)
	buf := grow32(sc.buf, h+2+m+1+3*m+nk)
	sc.buf = buf
	levelOff, buf := buf[:h+2:h+2], buf[h+2:]
	childOff, buf := buf[:m+1:m+1], buf[m+1:]
	labels, buf := buf[:m:m], buf[m:]
	perm, buf := buf[:m:m], buf[m:]
	degs, kids := buf[:m:m], buf[m:m+nk:m+nk]
	levelOff[0] = 0
	for d, w := range levels {
		levelOff[d+1] = levelOff[d] + w
	}
	n := levelOff[h+1]
	childOff[0] = 0
	for v, l := range stored {
		childOff[v+1] = childOff[v] + keyDegree(sc.keys[sc.off[l]:])
	}
	var t *Tree
	if hdr&ParentsFlag == 0 {
		sc.t = Tree{levelOff: levelOff, childOff: childOff, childIDs: bfsIDs(int(n)), bfs: true}
		t = &sc.t
	} else {
		t = MustNew(slices.Clone(words[1+m:]))
	}

	// Kids: each node's shape run, for levels 0..h-2; level h-1's are
	// leaves, which the profile leaves implicit.
	last := 0
	if h > 0 {
		last = int(levelOff[h-1])
	}
	kids = kids[:0]
	for _, l := range stored[:last] {
		kids = appendKids(kids, sc.keys[sc.off[l]:sc.off[l+1]])
	}
	if m > 0 {
		degs[0] = childOff[1]
		inner.AppendTo(degs[1:1])
	}
	// Level-sorted labels, equal labels in ascending node order, and the
	// permutation back to the nodes.
	var count []int32
	for d := range h {
		lo, hi := levelOff[d], levelOff[d+1]
		count = sc.sortLevel(stored[lo:hi], labels[lo:hi], perm[lo:hi], count)
	}
	if count != nil {
		returnCounts(count)
	}
	sc.p = Profile{
		Levels:    levels,
		Labels:    labels,
		Degs:      degs,
		Size:      n,
		Perm:      perm,
		Kids:      kids,
		KidOff:    childOff,
		LeafLabel: sc.leaf,
		dict:      a.Dict,
	}
	sc.p.Canon = uint64(sc.p.rootLabel())
	return t, &sc.p
}

// sortLevel writes the labels of run in ascending order to labels,
// equal ones in ascending index order, and their indexes in run to perm:
// a counting sort over the distinct labels of the run, in count, which
// it borrows when it needs it and count is nil, and returns.
func (sc *RowScratch) sortLevel(run, labels, perm, count []int32) []int32 {
	if slices.IsSorted(run) {
		copy(labels, run)
		for j := range perm {
			perm[j] = int32(j)
		}
		return count
	}
	if count == nil {
		count = borrowCounts(len(sc.off) - 1)
	}
	distinct := sc.distinct[:0]
	for _, l := range run {
		if count[l] == 0 {
			distinct = append(distinct, l)
		}
		count[l]++
	}
	slices.Sort(distinct)
	at := int32(0)
	for _, l := range distinct {
		at, count[l] = at+count[l], at
	}
	for j, l := range run {
		k := count[l]
		count[l]++
		labels[k], perm[k] = l, int32(j)
	}
	for _, l := range distinct {
		count[l] = 0
	}
	sc.distinct = distinct
	return count
}

// see makes sc's view of the dictionary hold every label of stored:
// labels only ever gain shapes, so the view is refreshed only when a
// label is past its end.
func (sc *RowScratch) see(in *Interner, stored []int32) {
	if sc.dict == in {
		top := int32(-1)
		for _, l := range stored {
			top = max(top, l)
		}
		if int(top) < len(sc.off)-1 {
			return
		}
	}
	sc.dict = in
	sc.keys, sc.off = in.view()
	leaf := appendKey(nil, nil)
	sc.leaf, _ = in.lookup(leaf, shapeHash(leaf))
}

// grow32 returns s resliced to n, reallocated when its capacity is short.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}
