package ned

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ned/internal/tree"
)

// checkRowColumns requires every tree and profile of c's rows to stop
// above the deepest level: Labels, Perm and Degs hold one entry per node
// above it, KidOff one more, Kids the child runs of the levels above
// h-1, and a BFS-order tree holds no parent vector.
func checkRowColumns(t *testing.T, label string, c *Corpus) {
	t.Helper()
	rows, in := 0, 0
	for it := range c.materializedView().ep.items() {
		rows++
		for _, side := range []struct {
			t *tree.Tree
			p *tree.Profile
		}{{it.Out, it.OutP}, {it.In, it.InP}} {
			if side.t == nil {
				continue
			}
			if side.t == it.In {
				in++
			}
			p := side.p
			if p == nil {
				t.Fatalf("%s: node %d has an unprofiled tree", label, it.Node)
			}
			inner := int(p.Size) - int(p.Levels[p.Height()])
			if len(p.Labels) != inner || len(p.Perm) != inner || len(p.Degs) != inner ||
				len(p.KidOff) != inner+1 || len(p.Kids) != max(inner-1, 0) {
				t.Fatalf("%s: node %d: Labels %d, Perm %d, Degs %d, KidOff %d, Kids %d for %d nodes above a deepest level of %d",
					label, it.Node, len(p.Labels), len(p.Perm), len(p.Degs), len(p.KidOff), len(p.Kids), inner, p.Levels[p.Height()])
			}
			if side.t.BFSOrder() && reflect.ValueOf(side.t).Elem().FieldByName("parent").Len() != 0 {
				t.Fatalf("%s: node %d: a BFS-order tree holds a parent vector", label, it.Node)
			}
		}
	}
	if rows == 0 {
		t.Fatalf("%s: no rows", label)
	}
	if c.cfg.directed && in != rows {
		t.Fatalf("%s: %d in-trees for %d directed rows", label, in, rows)
	}
}

// TestRowColumnsStopAboveDeepestLevel pins the resident row layout on
// every way a row comes to be: a PGP analog corpus (scale 1, k = 3) and
// a directed corpus as built, after Snapshot → LoadCorpus, after a
// checkpoint and OpenDurable, and rows converted from the NEDSEG01
// golden and from a version-3 text snapshot.
func TestRowColumnsStopAboveDeepestLevel(t *testing.T) {
	ctx := context.Background()
	corpora := []struct {
		name string
		g    *Graph
		opts []CorpusOption
	}{
		{"pgp", MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1, Seed: 42}), nil},
		{"directed", randomDirectedGraph(300, 1200, 4207), []CorpusOption{WithDirected()}},
	}
	for _, tc := range corpora {
		c, err := NewCorpus(tc.g, 3, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.KNN(ctx, 0, 5); err != nil {
			t.Fatal(err)
		}
		checkRowColumns(t, tc.name+" built", c)

		var snap bytes.Buffer
		if err := c.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCorpus(&snap, WithGraph(tc.g))
		if err != nil {
			t.Fatal(err)
		}
		checkRowColumns(t, tc.name+" loaded", loaded)

		dir := t.TempDir()
		if err := c.MakeDurable(dir, FsyncNone); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(dir, FsyncNone, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.KNN(ctx, 0, 5); err != nil {
			t.Fatal(err)
		}
		checkRowColumns(t, tc.name+" recovered", r)
		if err := r.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}

	for _, path := range []string{
		filepath.Join("internal", "segment", "testdata", "golden-v1.nedseg"),
		filepath.Join("testdata", "corpus_v3_rebalanced.nedcorpus"),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := loadUpgraded(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkRowColumns(t, fmt.Sprintf("converted from %s", path), c)
	}
}
