package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRowMatchesProfile builds every row of an arena, in one reused
// scratch and in memory of its own, and requires each to equal a fresh
// Profile of the tree the row came from, column for column, on a tree
// of its shape: random BFS-order trees, and level-order trees that are
// not in BFS order.
func TestRowMatchesProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := NewInterner()
	var trees []*Tree
	var runs []ArenaRun
	for i := range 400 {
		tr := Random(rng, 1+rng.Intn(60), 1+rng.Intn(4))
		if i%7 == 0 {
			tr = MustNew([]int32{-1, 0, 0, 2, 1}) // node 3 hangs under node 2, node 4 under node 1
		}
		trees = append(trees, tr)
		runs = append(runs, ArenaRun{P: dict.Profile(tr), T: tr})
	}
	a := CompileRuns(runs, 0)
	var sc RowScratch
	for i, tr := range trees {
		want := dict.Profile(tr)
		for _, build := range []func() (*Tree, *Profile){
			func() (*Tree, *Profile) { return sc.Row(a, i) },
			func() (*Tree, *Profile) { return a.Build(i) },
		} {
			gt, gp := build()
			if !reflect.DeepEqual(gt.ParentVector(), tr.ParentVector()) || gt.BFSOrder() != tr.BFSOrder() {
				t.Fatalf("row %d: tree %v, want %v", i, gt.ParentVector(), tr.ParentVector())
			}
			if !reflect.DeepEqual(*gp, *want) {
				t.Fatalf("row %d: profile\n%+v\nwant\n%+v", i, *gp, *want)
			}
		}
	}
}
