package ned

import (
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/tree"
)

// TestProfileSwapMatchesCanonicalOrder pins the verify stage's pair
// orientation to tree.Canonical's order — size, then height, then AHU
// encoding — on the trees of the six dataset analogs at k = 2 and 3:
// every pair within each (size, height) class, where the encodings
// decide, and each tree against its neighbours in extraction order. A
// candidate's tree never caches its encoding by being oriented.
func TestProfileSwapMatchesCanonicalOrder(t *testing.T) {
	ties := 0
	for _, name := range datasets.All {
		g := datasets.MustGenerate(name, datasets.Options{Scale: 0.1, Seed: 3})
		for _, k := range []int{2, 3} {
			dict := tree.NewInterner()
			n := min(g.NumNodes(), 300)
			// A query's tree may cache its encoding, a candidate's must not:
			// each node has one tree per role.
			trees, queries := make([]*tree.Tree, n), make([]*tree.Tree, n)
			profiles := make([]*tree.Profile, n)
			classes := map[[2]int][]int{}
			for v := range n {
				trees[v] = tree.Extract(g, graph.NodeID(v), k, graph.Outgoing)
				queries[v] = tree.Extract(g, graph.NodeID(v), k, graph.Outgoing)
				profiles[v] = dict.Profile(trees[v])
				key := [2]int{trees[v].Size(), trees[v].Height()}
				classes[key] = append(classes[key], v)
			}
			check := func(a, b int) {
				t1, t2 := queries[a], trees[b]
				want := t1.Size() > t2.Size() ||
					(t1.Size() == t2.Size() && (t1.Height() > t2.Height() ||
						t1.Height() == t2.Height() && tree.CanonicalUncached(t1) > tree.CanonicalUncached(t2)))
				if got := profileSwap(t1, t2, profiles[a], profiles[b]); got != want {
					t.Fatalf("%s k=%d: nodes %d, %d: profileSwap %v, canonical order says %v", name, k, a, b, got, want)
				}
				if t2.HasCanon() {
					t.Fatalf("%s k=%d: orienting cached node %d's encoding on its tree", name, k, b)
				}
			}
			for _, class := range classes {
				for _, a := range class {
					for _, b := range class {
						if a != b {
							ties++
							check(a, b)
						}
					}
				}
			}
			for v := 1; v < n; v++ {
				check(v-1, v)
				check(v, v-1)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no size-and-height ties among the analogs' trees")
	}
}
