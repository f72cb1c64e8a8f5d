package tree

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
)

// randomBFSParents returns a random BFS-order parent vector: level by
// level, each node of the previous level takes 0..maxKids-1 children in
// node order, so parents never decrease.
func randomBFSParents(rng *rand.Rand, height, maxKids int) []int32 {
	parent := []int32{-1}
	lo, hi := 0, 1
	for range height {
		for p := lo; p < hi; p++ {
			for range rng.Intn(maxKids) {
				parent = append(parent, int32(p))
			}
		}
		if len(parent) == hi {
			break
		}
		lo, hi = hi, len(parent)
	}
	return parent
}

// refChildren lists every node's children from a parent vector, in
// ascending ID order.
func refChildren(parent []int32) [][]int32 {
	kids := make([][]int32, len(parent))
	for v := 1; v < len(parent); v++ {
		kids[parent[v]] = append(kids[parent[v]], int32(v))
	}
	return kids
}

// refCanonical is the AHU encoding computed by recursion over the
// parent vector's child lists.
func refCanonical(kids [][]int32, v int32) string {
	parts := make([]string, 0, len(kids[v]))
	for _, c := range kids[v] {
		parts = append(parts, refCanonical(kids, c))
	}
	sort.Strings(parts)
	return "(" + strings.Join(parts, "") + ")"
}

// refLevelStarts returns the first node of every depth, then n.
func refLevelStarts(parent []int32) []int32 {
	depth := make([]int32, len(parent))
	starts := []int32{0}
	for v := 1; v < len(parent); v++ {
		depth[v] = depth[parent[v]] + 1
		if depth[v] != depth[v-1] {
			starts = append(starts, int32(v))
		}
	}
	return append(starts, int32(len(parent)))
}

// checkTrimmed compares every parent-derived accessor of the tree New
// builds from a BFS-order parent vector to the vector itself, and pins
// the trimmed layout: no parent vector, child offsets for the nodes
// above the deepest level only.
func checkTrimmed(t *testing.T, parent []int32) {
	t.Helper()
	tr := MustNew(parent)
	n := len(parent)
	starts := refLevelStarts(parent)
	h := len(starts) - 2
	inner := int(starts[h])
	if !tr.BFSOrder() || tr.parent != nil || len(tr.childOff) != inner+1 {
		t.Fatalf("%v: BFS=%v, parent vector held=%v, %d child offsets, want a BFS tree with none and %d",
			parent, tr.BFSOrder(), tr.parent != nil, len(tr.childOff), inner+1)
	}
	if tr.Size() != n || tr.Height() != h {
		t.Fatalf("%v: Size=%d Height=%d, want %d, %d", parent, tr.Size(), tr.Height(), n, h)
	}
	kids := refChildren(parent)
	leaves := 0
	for v := range int32(n) {
		if got := tr.Parent(v); got != parent[v] {
			t.Fatalf("%v: Parent(%d)=%d, want %d", parent, v, got, parent[v])
		}
		if got := tr.Children(v); !slices.Equal(got, kids[v]) || tr.NumChildren(v) != len(kids[v]) {
			t.Fatalf("%v: Children(%d)=%v (%d), want %v", parent, v, got, tr.NumChildren(v), kids[v])
		}
		if len(kids[v]) == 0 {
			leaves++
		}
	}
	if tr.Leaves() != leaves {
		t.Fatalf("%v: Leaves=%d, want %d", parent, tr.Leaves(), leaves)
	}
	if got := tr.ParentVector(); !slices.Equal(got, parent) {
		t.Fatalf("ParentVector=%v, want %v", got, parent)
	}
	enc := make([]string, 0, n)
	for _, p := range parent[1:] {
		enc = append(enc, strconv.Itoa(int(p)))
	}
	if got := Encode(tr); got != strings.Join(enc, ",") {
		t.Fatalf("Encode=%q, want %q", got, strings.Join(enc, ","))
	}
	back, err := Decode(Encode(tr))
	if err != nil || !slices.Equal(back.ParentVector(), parent) {
		t.Fatalf("%v: Decode(Encode) = %v, %v", parent, back, err)
	}
	if got, want := Canonical(tr), refCanonical(kids, 0); got != want {
		t.Fatalf("%v: Canonical=%q, want %q", parent, got, want)
	}
	if got := tr.Clone().ParentVector(); !slices.Equal(got, parent) {
		t.Fatalf("%v: Clone's parents %v", parent, got)
	}
	for k := -1; k <= h+1; k++ {
		cut := tr.Truncate(k)
		want := parent[:starts[min(max(k, 0), h)+1]]
		if got := cut.ParentVector(); !slices.Equal(got, want) {
			t.Fatalf("%v: Truncate(%d) parents %v, want %v", parent, k, got, want)
		}
		if cut.Height() != min(max(k, 0), h) || len(cut.childOff) != cut.Size()-cut.LevelSize(cut.Height())+1 {
			t.Fatalf("%v: Truncate(%d) has height %d and %d child offsets", parent, k, cut.Height(), len(cut.childOff))
		}
	}
}

// TestTrimmedTreeMatchesParentVector pins the trimmed BFS-order tree —
// no parent vector, child offsets only above the deepest level — to a
// reference computed from the full parent vector: Parent, Children,
// NumChildren, Leaves, ParentVector, Encode/Decode, Canonical, Clone and
// Truncate at every depth, over random BFS trees and the k = 2 and 3
// out-trees of the six dataset analogs (whose parent vectors come from
// the dense BFS oracle).
func TestTrimmedTreeMatchesParentVector(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checkTrimmed(t, []int32{-1})
	for range 500 {
		checkTrimmed(t, randomBFSParents(rng, rng.Intn(6), 1+rng.Intn(5)))
	}
	for _, name := range datasets.All {
		g := datasets.MustGenerate(name, datasets.Options{Scale: 0.05, Seed: 7})
		for _, k := range []int{2, 3} {
			for v := 0; v < g.NumNodes(); v += 1 + g.NumNodes()/150 {
				parent, _ := denseKAdjacent(g, graph.NodeID(v), k, graph.Outgoing)
				checkTrimmed(t, parent)
			}
		}
	}
	// A tree not in BFS order keeps its parent vector and full offsets.
	tr := MustNew([]int32{-1, 0, 0, 1, 2, 1})
	if tr.BFSOrder() || tr.parent == nil || len(tr.childOff) != tr.Size()+1 {
		t.Fatalf("non-BFS tree: BFS=%v, parent held=%v, %d child offsets", tr.BFSOrder(), tr.parent != nil, len(tr.childOff))
	}
}
