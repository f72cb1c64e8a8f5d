package ned

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

// checkRowsAreColumns requires c's scan to hold its rows as columns
// only: every item it lists carries no tree and no profile, and every
// row it builds back — trees and profiles — equals a fresh profile of
// the tree extracted from c's graph, Labels, Perm, Degs, Kids and
// KidOff included, the in-tree's too when directed.
func checkRowsAreColumns(t *testing.T, label string, c *Corpus) {
	t.Helper()
	view := c.view.Load()
	ix := view.scan
	if ix == nil {
		t.Fatalf("%s: no scan", label)
	}
	rows := 0
	for it := range ix.Items() {
		rows++
		if it.Out != nil || it.OutP != nil || it.In != nil || it.InP != nil {
			t.Fatalf("%s: node %d's indexed item holds a tree or a profile", label, it.Node)
		}
		built, ok := ix.Item(it.Node)
		if !ok {
			t.Fatalf("%s: node %d listed but not found", label, it.Node)
		}
		sides := []struct {
			got  *tree.Tree
			gotP *tree.Profile
			dir  graph.EdgeDirection
		}{{built.Out, built.OutP, graph.Outgoing}}
		if c.cfg.directed {
			sides = append(sides, struct {
				got  *tree.Tree
				gotP *tree.Profile
				dir  graph.EdgeDirection
			}{built.In, built.InP, graph.Incoming})
		}
		for _, s := range sides {
			want := tree.Extract(view.g, it.Node, c.k, s.dir)
			wp := c.dict.ProfileQuery(want)
			if !wp.Resolved() {
				t.Fatalf("%s: node %d's tree has shapes the dictionary lacks", label, it.Node)
			}
			if !slices.Equal(s.got.ParentVector(), want.ParentVector()) {
				t.Fatalf("%s: node %d: built tree %v, extracted %v", label, it.Node, s.got.ParentVector(), want.ParentVector())
			}
			g := s.gotP
			for _, col := range []struct {
				name      string
				got, want []int32
			}{
				{"Levels", g.Levels, wp.Levels}, {"Labels", g.Labels, wp.Labels}, {"Perm", g.Perm, wp.Perm},
				{"Degs", g.Degs, wp.Degs}, {"Kids", g.Kids, wp.Kids}, {"KidOff", g.KidOff, wp.KidOff},
			} {
				if !slices.Equal(col.got, col.want) {
					t.Fatalf("%s: node %d: %s %v, fresh profile %v", label, it.Node, col.name, col.got, col.want)
				}
			}
			if g.Size != wp.Size || g.LeafLabel != wp.LeafLabel || g.Canon != wp.Canon {
				t.Fatalf("%s: node %d: size/leaf/canon %d/%d/%d, fresh %d/%d/%d", label, it.Node,
					g.Size, g.LeafLabel, g.Canon, wp.Size, wp.LeafLabel, wp.Canon)
			}
		}
	}
	if rows != c.Stats().Nodes || rows == 0 {
		t.Fatalf("%s: %d rows listed for %d nodes", label, rows, c.Stats().Nodes)
	}
}

// TestRowsAreColumns checks the scan's rows as built (the base), after
// writes (a delta with dead base rows), after enough writes to fold,
// after Snapshot → LoadCorpus, and after a checkpoint, further writes
// and OpenDurable (replay), over the six dataset analogs at k = 3 and a
// directed corpus.
func TestRowsAreColumns(t *testing.T) {
	ctx := context.Background()
	type corpusCase struct {
		name string
		g    *Graph
		opts []CorpusOption
	}
	var cases []corpusCase
	for _, name := range []DatasetName{DatasetCAR, DatasetPAR, DatasetAMZN, DatasetDBLP, DatasetGNU, DatasetPGP} {
		cases = append(cases, corpusCase{string(name), MustGenerateDataset(name, DatasetOptions{Scale: 0.1, Seed: 42}), nil})
	}
	cases = append(cases, corpusCase{"directed", randomDirectedGraph(300, 1200, 4207), []CorpusOption{WithDirected()}})
	for _, tc := range cases {
		c, err := NewCorpus(tc.g, 3, append([]CorpusOption{WithWorkers(1)}, tc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.KNN(ctx, 0, 5); err != nil {
			t.Fatal(err)
		}
		checkRowsAreColumns(t, tc.name+" built", c)

		n := tc.g.NumNodes()
		write := func(from, to int) {
			for v := from; v < to; v++ {
				if err := c.Remove(NodeID(v % n)); err != nil {
					t.Fatal(err)
				}
				if v%3 != 0 {
					if err := c.Insert(NodeID(v % n)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		write(0, 20)
		checkRowsAreColumns(t, tc.name+" with a delta", c)
		write(20, 20+max(64, n/32)+10)
		checkRowsAreColumns(t, tc.name+" folded", c)

		var snap bytes.Buffer
		if err := c.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCorpus(&snap, WithGraph(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAreColumns(t, tc.name+" loaded", loaded)

		dir := t.TempDir()
		if err := c.MakeDurable(dir, FsyncNone); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		write(200, 230)
		if err := c.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(dir, FsyncNone, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAreColumns(t, fmt.Sprintf("%s recovered", tc.name), r)
		if err := r.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}
}
