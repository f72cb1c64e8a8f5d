package tree

import (
	"math/rand"
	"slices"
	"testing"
)

// refTree is what the depth-array validator derived from a parent
// vector: per-node depths, level starts, and the CSR child lists.
type refTree struct {
	depth, levelOff, childOff, childIDs []int32
}

// referenceValidate is the level-order validator New used while a
// tree stored its depth array, kept as the oracle for the depth-free
// one: depth[v] = depth[parent[v]]+1 must never decrease along node
// IDs. ok is false exactly when that validator returned an error.
func referenceValidate(parent []int32) (ref refTree, ok bool) {
	n := len(parent)
	if n == 0 || parent[0] != -1 {
		return ref, false
	}
	depth := make([]int32, n)
	childOff := make([]int32, n+1)
	for v := 1; v < n; v++ {
		p := parent[v]
		if p < 0 || int(p) >= v {
			return ref, false
		}
		depth[v] = depth[p] + 1
		if depth[v] < depth[v-1] {
			return ref, false
		}
		childOff[p+1]++
	}
	height := int(depth[n-1])
	levelOff := make([]int32, height+2)
	levelOff[height+1] = int32(n)
	for v := 1; v < n; v++ {
		if depth[v] != depth[v-1] {
			levelOff[depth[v]] = int32(v)
		}
	}
	for v := 1; v <= n; v++ {
		childOff[v] += childOff[v-1]
	}
	childIDs := make([]int32, n-1)
	cursor := slices.Clone(childOff)
	for v := 1; v < n; v++ {
		p := parent[v]
		childIDs[cursor[p]] = int32(v)
		cursor[p]++
	}
	return refTree{depth, levelOff, childOff, childIDs}, true
}

// checkAgainstReference fails unless New accepts exactly what the
// reference validator accepts and, when both accept, agrees with it on
// every level-wise and child-wise accessor. It reports whether the
// vector was accepted.
func checkAgainstReference(t testing.TB, parent []int32) bool {
	t.Helper()
	ref, ok := referenceValidate(parent)
	tr, err := New(parent)
	if (err == nil) != ok {
		t.Fatalf("parent %v: New err=%v, reference accepts=%v", parent, err, ok)
	}
	if !ok {
		return false
	}
	if want := len(ref.levelOff) - 2; tr.Height() != want {
		t.Fatalf("parent %v: Height=%d, want %d", parent, tr.Height(), want)
	}
	for d := -1; d <= tr.Height()+1; d++ {
		lo, hi := tr.LevelRange(d)
		var wlo, whi int32
		if d >= 0 && d < len(ref.levelOff)-1 {
			wlo, whi = ref.levelOff[d], ref.levelOff[d+1]
		}
		if lo != wlo || hi != whi || tr.LevelSize(d) != int(whi-wlo) {
			t.Fatalf("parent %v: level %d is [%d,%d) size %d, want [%d,%d)",
				parent, d, lo, hi, tr.LevelSize(d), wlo, whi)
		}
		for v := lo; v < hi; v++ {
			if ref.depth[v] != int32(d) {
				t.Fatalf("parent %v: node %d listed at level %d, depth %d", parent, v, d, ref.depth[v])
			}
		}
	}
	for v := range int32(len(parent)) {
		want := ref.childIDs[ref.childOff[v]:ref.childOff[v+1]]
		if got := tr.Children(v); !slices.Equal(got, want) {
			t.Fatalf("parent %v: Children(%d)=%v, want %v", parent, v, got, want)
		}
		if tr.NumChildren(v) != len(want) {
			t.Fatalf("parent %v: NumChildren(%d)=%d, want %d", parent, v, tr.NumChildren(v), len(want))
		}
	}
	return true
}

// isBFSOrder reports whether parent is non-decreasing past the root.
func isBFSOrder(parent []int32) bool { return slices.IsSorted(parent[1:]) }

// nonBFSLevelOrder returns a random level-order parent vector whose
// parents are not non-decreasing: each level's nodes pick parents
// anywhere in the level above, in any order.
func nonBFSLevelOrder(rng *rand.Rand) []int32 {
	parent := []int32{-1}
	prevLo, prevHi := 0, 1
	for range 1 + rng.Intn(4) {
		w := 1 + rng.Intn(6)
		for range w {
			parent = append(parent, int32(prevLo+rng.Intn(prevHi-prevLo)))
		}
		prevLo, prevHi = prevHi, len(parent)
	}
	return parent
}

// mutateParent perturbs one entry of a valid parent vector, which
// yields both invalid vectors (forward or self references, level-order
// violations, a bad root) and, sometimes, another valid one.
func mutateParent(rng *rand.Rand, parent []int32) []int32 {
	out := slices.Clone(parent)
	v := rng.Intn(len(out))
	switch rng.Intn(3) {
	case 0:
		out[v] = int32(rng.Intn(len(out)+2)) - 1
	case 1:
		out[v] = int32(v)
	default:
		if v > 0 {
			out[v] = out[v-1] - 1
		}
	}
	return out
}

// TestNewMatchesDepthValidator pins the depth-free validator to
// the depth-array one on random BFS, non-BFS level-order, and invalid
// parent vectors.
func TestNewMatchesDepthValidator(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	fixed := [][]int32{
		{-1}, {0}, {-1, 1}, {-1, 0, 1, 0}, {-1, 0, 0, 1}, {-1, 0, 0, 2, 1},
		{-1, 0, 0, 2, 2, 1, 4, 3}, {-1, 0, 1, 1, 0}, {-1, -1}, {-1, 0, 2},
	}
	for _, p := range fixed {
		checkAgainstReference(t, p)
	}
	var bfs, nonBFS, rejected int
	for range 2000 {
		var p []int32
		switch rng.Intn(3) {
		case 0:
			p = Random(rng, 1+rng.Intn(40), 1+rng.Intn(5)).ParentVector()
		case 1:
			p = nonBFSLevelOrder(rng)
		default:
			p = mutateParent(rng, nonBFSLevelOrder(rng))
		}
		switch {
		case !checkAgainstReference(t, p):
			rejected++
		case isBFSOrder(p):
			bfs++
		default:
			nonBFS++
		}
	}
	if bfs < 100 || nonBFS < 100 || rejected < 100 {
		t.Fatalf("mix too thin: %d BFS, %d non-BFS, %d rejected", bfs, nonBFS, rejected)
	}
}

// TestChildrenAppendIsolated pins that a Children slice cannot be
// appended into: BFS-order trees share one run of child IDs, so an
// append that wrote in place would corrupt every other tree.
func TestChildrenAppendIsolated(t *testing.T) {
	a := MustNew([]int32{-1, 0, 0, 1, 1})
	b := MustNew([]int32{-1, 0, 0, 1, 1, 2})
	want := slices.Clone(b.Children(1))
	for v := range int32(a.Size()) {
		_ = append(a.Children(v), 99, 99)
	}
	if got := b.Children(1); !slices.Equal(got, want) {
		t.Fatalf("appending to a's children changed b.Children(1): %v, want %v", got, want)
	}
	for v := range int32(b.Size()) {
		for _, c := range b.Children(v) {
			if b.Parent(c) != v {
				t.Fatalf("b.Children(%d) holds %d, whose parent is %d", v, c, b.Parent(c))
			}
		}
	}
}

// TestTruncateNegativeKeepsRoot pins Truncate(k < 0) to Truncate(0).
func TestTruncateNegativeKeepsRoot(t *testing.T) {
	for _, k := range []int{-1, -5} {
		if tt := FullKAry(2, 3).Truncate(k); tt.Size() != 1 || tt.Height() != 0 {
			t.Fatalf("Truncate(%d) = %v, want the root alone", k, tt)
		}
	}
}
