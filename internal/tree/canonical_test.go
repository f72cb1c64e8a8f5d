package tree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// canonicalRows compiles trees into one arena against a fresh
// dictionary, profiling them in the given order (a tree not in BFS order
// keeps its parent vector), and canonicalizes the arena into another.
func canonicalRows(t *testing.T, trees []*Tree, order []int, workers int) (*ProfileArena, *Interner) {
	t.Helper()
	from := NewInterner()
	runs := make([]ArenaRun, len(trees))
	for _, i := range order {
		runs[i] = ArenaRun{P: from.Profile(trees[i]), T: trees[i]}
	}
	a := CompileRuns(runs, 0)
	to := NewInterner()
	to.Canonicalize([]*ProfileArena{a}, workers)
	if a.Dict != to {
		t.Fatal("the canonicalized arena is not labelled against the new dictionary")
	}
	return a, to
}

// Canonicalize numbers shapes by the rules of its doc and by nothing
// the source dictionary chose: rows of the same trees interned in two
// orders come out byte-identical, every row still stores its tree, and
// the IDs run children first, then by the ID width the order of (uses,
// descending; height) gives a shape's run of equals, then by height,
// then by the coded key's deltas.
func TestCanonicalizeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trees := []*Tree{MustNew([]int32{-1}), Path(5), Star(6)}
	for range 300 {
		trees = append(trees, Random(rng, 2+rng.Intn(40), 1+rng.Intn(4)))
	}
	forward := make([]int, len(trees))
	for i := range forward {
		forward[i] = i
	}
	backward := slices.Clone(forward)
	slices.Reverse(backward)
	a, dict := canonicalRows(t, trees, forward, 1)
	b, dict2 := canonicalRows(t, trees, backward, 2)
	keys, off := dict.Coded()
	keys2, off2 := dict2.Coded()
	n := len(off) - 1
	if !slices.Equal(off, off2) || !bytes.Equal(keys, keys2) || !bytes.Equal(a.Words, b.Words) || !slices.Equal(a.WordOff, b.WordOff) {
		t.Fatal("the canonical dictionary or rows depend on the order the source dictionary interned in")
	}

	for i, tr := range trees {
		got, _ := a.Build(i)
		if Canonical(got) != Canonical(tr) {
			t.Fatalf("row %d stores another tree after the canonical pass", i)
		}
	}

	uses := make([]int64, n)
	for i := range a.N {
		words := DecodeWords(nil, a.Stored(i))
		for _, l := range words[1 : 1+uint32(words[0])&^ParentsFlag] {
			uses[l]++
		}
	}
	height := make([]int32, n)
	for id := range int32(n) {
		for _, kid := range dict.Kids(id, nil) {
			if kid >= id {
				t.Fatalf("shape %d has child %d", id, kid)
			}
			height[id] = max(height[id], height[kid]+1)
		}
	}
	if height[0] != 0 {
		t.Fatal("shape 0 is not the leaf")
	}
	// Each shape's width: that of the last place its run of equal
	// (uses, height) takes in the order of (uses, descending; height),
	// the leaf first.
	byUse := make([]int32, n)
	for id := range byUse {
		byUse[id] = int32(id)
	}
	slices.SortFunc(byUse[1:], func(a, b int32) int {
		if uses[a] != uses[b] {
			return int(uses[b] - uses[a])
		}
		return int(height[a] - height[b])
	})
	width := make([]int, n)
	for at := n - 1; at >= 0; at-- {
		id := byUse[at]
		if next := at + 1; at > 0 && next < n && uses[id] == uses[byUse[next]] && height[id] == height[byUse[next]] {
			width[id] = width[byUse[next]]
		} else {
			width[id] = UvarintLen(uint32(at))
		}
	}
	if width[n-1] < 2 {
		t.Fatalf("%d shapes: the check never crosses an ID width", n)
	}
	var prev []byte
	for id := range int32(n) {
		key := appendKey(nil, dict.Kids(id, nil))
		_, at := uvarintAt(key, 0)
		deltas := key[at:]
		if id >= 2 {
			w, pw := width[id], width[id-1]
			h, ph := height[id], height[id-1]
			if w < pw || w == pw && h < ph || w == pw && h == ph && bytes.Compare(deltas, prev) <= 0 {
				t.Fatalf("shape %d (width %d, height %d) follows shape %d (width %d, height %d) out of order", id, w, h, id-1, pw, ph)
			}
		}
		prev = deltas
	}
}
