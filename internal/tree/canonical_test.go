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
// the IDs run children first, then by uses (descending), height and
// coded key.
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
	n, keys := dict.Coded()
	n2, keys2 := dict2.Coded()
	if n != n2 || !bytes.Equal(keys, keys2) || !bytes.Equal(a.Words, b.Words) || !slices.Equal(a.WordOff, b.WordOff) {
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
	var prev []byte
	for id := range int32(n) {
		kids := dict.Kids(id, nil)
		for _, kid := range kids {
			if kid >= id {
				t.Fatalf("shape %d has child %d", id, kid)
			}
			height[id] = max(height[id], height[kid]+1)
		}
		key := appendKey(nil, kids)
		if id >= 2 {
			u, pu := uses[id], uses[id-1]
			h, ph := height[id], height[id-1]
			if u > pu || u == pu && h < ph || u == pu && h == ph && bytes.Compare(key, prev) <= 0 {
				t.Fatalf("shape %d (uses %d, height %d) follows shape %d (uses %d, height %d) out of order", id, u, h, id-1, pu, ph)
			}
		}
		prev = key
	}
	if height[0] != 0 {
		t.Fatal("shape 0 is not the leaf")
	}
}
