package ned

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"ned/internal/ned"
	"ned/internal/tree"
)

// TestCorpusSnapshotRoundTrip is the persistence contract: a built,
// mutated corpus round-trips through Snapshot/LoadCorpus, the restored
// engine answers exactly as the exhaustive scan over the live nodes
// does, and it can mutate exactly when its source could — the snapshot
// carries the graph if the source had one.
func TestCorpusSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(60, 130, 910)
	gq := randomGraph(40, 80, 911)

	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 3); err != nil { // materialize
		t.Fatal(err)
	}
	// Mutate so the snapshot captures a churned index, not the
	// construction-time node set.
	if err := c.Remove(1, 3, 5, 7); err != nil {
		t.Fatal(err)
	}
	live := map[NodeID]bool{}
	for _, v := range allNodes(g) {
		live[v] = true
	}
	for _, v := range []NodeID{1, 3, 5, 7} {
		delete(live, v)
	}

	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if s := loaded.Stats(); s.Backend != BackendPrunedLinear || s.K != k || s.Nodes != 56 {
		t.Fatalf("restored stats %+v", s)
	}
	assertMatchesOracle(t, "restored", loaded, oracleOver(g, k, sortedNodes(live)), gq, k, 6, 912)

	// The source had its graph, so the restored corpus has it too.
	if _, err := loaded.KNN(ctx, 1, 3); err != nil {
		t.Errorf("restored KNN of a removed node: %v", err)
	}
	if err := loaded.Insert(1); err != nil {
		t.Errorf("restored Insert: %v", err)
	}
	if _, err := loaded.UpdateGraph(g); err != nil {
		t.Errorf("restored UpdateGraph: %v", err)
	}
	live[1] = true
	assertMatchesOracle(t, "restored+insert", loaded, oracleOver(g, k, sortedNodes(live)), gq, k, 3, 913)

	// A source without a graph — here a converted text manifest — writes
	// a snapshot without one: indexed nodes answer, nothing else does.
	text, err := os.ReadFile("testdata/corpus_v3_rebalanced.nedcorpus")
	if err != nil {
		t.Fatal(err)
	}
	imported, err := loadUpgraded(text)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := imported.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	graphless, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphless.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := graphless.KNN(ctx, 0, 3); err != nil {
		t.Errorf("graphless KNN of indexed node: %v", err)
	}
	if _, err := graphless.KNN(ctx, 1, 3); !errors.Is(err, ErrNoGraph) {
		t.Errorf("graphless KNN of removed node: got %v, want ErrNoGraph", err)
	}
	if err := graphless.Insert(1); !errors.Is(err, ErrNoGraph) {
		t.Errorf("graphless Insert: got %v, want ErrNoGraph", err)
	}
	if _, err := graphless.UpdateGraph(g); !errors.Is(err, ErrNoGraph) {
		t.Errorf("graphless UpdateGraph: got %v, want ErrNoGraph", err)
	}
}

// TestCorpusSnapshotWithGraphResumesMutation restores a snapshot with
// WithGraph overriding the embedded graph and drives the full mutable
// lifecycle on the restored corpus.
func TestCorpusSnapshotWithGraphResumesMutation(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(50, 100, 913)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(4, 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf, WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Insert(4); err != nil {
		t.Fatalf("Insert on restored corpus: %v", err)
	}
	if err := loaded.Remove(0); err != nil {
		t.Fatal(err)
	}
	var live []NodeID
	for _, v := range allNodes(g) {
		if v != 0 && v != 8 {
			live = append(live, v)
		}
	}
	assertMatchesOracle(t, "restored+mutated", loaded, oracleOver(g, 2, live), randomGraph(30, 60, 914), 2, 4, 915)
	// Signature and arbitrary-node queries work again with the graph.
	if _, err := loaded.Signature(8); err != nil {
		t.Errorf("Signature on restored corpus with graph: %v", err)
	}
	if _, err := loaded.KNN(ctx, 8, 3); err != nil {
		t.Errorf("KNN of unindexed node with graph: %v", err)
	}
}

// TestCorpusSnapshotDirected round-trips a directed corpus (two trees
// per item) and queries it by node ID on the restored engine.
func TestCorpusSnapshotDirected(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(915))
	b := NewGraphBuilder(30, true)
	for i := 0; i < 70; i++ {
		u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	c, err := NewCorpus(g, 2, WithDirected())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := loaded.Stats(); !s.Directed {
		t.Fatal("restored corpus lost directedness")
	}
	got, err := loaded.KNN(ctx, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := directedRanking(g, 3, 2)[:7]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restored directed KNN %v, exhaustive directed NED %v", got, want)
	}
}

// TestCorpusSnapshotDeterministic: what NEDSEG02 promises — the same
// corpus snapshotted twice is byte-identical, here after mutations and
// again after a round trip.
func TestCorpusSnapshotDeterministic(t *testing.T) {
	g := randomGraph(40, 80, 916)
	c, err := NewCorpus(g, 2, WithNodes([]NodeID{9, 3, 7}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, 5); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"mutated", "restored"} {
		var b1, b2 bytes.Buffer
		if err := c.Snapshot(&b1); err != nil {
			t.Fatal(err)
		}
		if err := c.Snapshot(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s corpus: two snapshots differ (%d and %d bytes)", label, b1.Len(), b2.Len())
		}
		if c, err = LoadCorpus(&b1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotBytesIgnoreDelta: how the scan splits its items between
// base and delta never reaches the disk. A built corpus churned by a
// remove/insert storm — well over a fold's worth of mutations, ending
// mid-delta on the live set it started from — snapshots
// byte-identical to its snapshot before the storm: the re-extracted
// signatures intern against the same dictionary, so nothing differs.
func TestSnapshotBytesIgnoreDelta(t *testing.T) {
	g := randomGraph(240, 520, 931)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Rebuild()
	var before bytes.Buffer
	if err := c.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(932))
	for round := 0; round < 6; round++ {
		storm := rng.Perm(g.NumNodes())[:30+rng.Intn(30)]
		nodes := make([]NodeID, len(storm))
		for i, v := range storm {
			nodes[i] = NodeID(v)
		}
		for _, v := range nodes {
			if err := c.Remove(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Insert(nodes...); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Nodes != g.NumNodes() {
		t.Fatalf("storm ended on %d nodes, started on %d", s.Nodes, g.NumNodes())
	}
	var after bytes.Buffer
	if err := c.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("snapshot after the storm differs: %d bytes, %d before", after.Len(), before.Len())
	}
}

// TestLoadCorpusLegacySignatureFile: a plain WriteSignatures file (the
// pre-snapshot format) converts (nedstats -upgrade) and loads as a
// corpus.
func TestLoadCorpusLegacySignatureFile(t *testing.T) {
	g := randomGraph(30, 60, 917)
	sigs := Signatures(g, allNodes(g), 2)
	path := t.TempDir() + "/sigs.txt"
	if err := SaveSignatures(path, sigs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadUpgraded(raw)
	if err != nil {
		t.Fatalf("LoadCorpus(legacy signatures): %v", err)
	}
	if s := loaded.Stats(); s.K != 2 || s.Nodes != 30 || s.Backend != BackendPrunedLinear {
		t.Fatalf("legacy load stats: %+v", s)
	}
	assertMatchesOracle(t, "legacy-loaded", loaded, corpusOracle(sigs), randomGraph(20, 40, 918), 2, 4, 919)
}

// TestLoadCorpusErrors pins the typed error contract of LoadCorpus. Each
// text input is a bad snapshot as it is, and still fails once converted:
// at the conversion, or — a name no backend has — at the load.
func TestLoadCorpusErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"future version", "# ned corpus v9 backend=vp k=2 directed=0 nodes=0\n"},
		{"missing header field", "# ned corpus v1 backend=vp k=2 nodes=0\n"},
		{"bad tree", "# ned corpus v1 backend=vp k=2 directed=0 nodes=1\n0 2 0,zap\n"},
		{"truncated", "# ned corpus v1 backend=vp k=2 directed=0 nodes=3\n0 2 0\n1 2 0\n"},
		{"k mismatch", "# ned corpus v1 backend=vp k=2 directed=0 nodes=1\n0 3 0\n"},
		{"duplicate node", "# ned corpus v1 backend=vp k=2 directed=0 nodes=2\n0 2 0\n0 2 0,0\n"},
		{"unknown backend", "# ned corpus v1 backend=zorp k=2 directed=0 nodes=1\n0 2 0\n"},
		{"directed field count", "# ned corpus v1 backend=vp k=2 directed=1 nodes=1\n0 2 0\n"},
		{"legacy mixed k", "0 2 0\n1 3 0\n"},
	}
	for _, tc := range cases {
		if _, err := LoadCorpus(strings.NewReader(tc.in)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
		if seg, err := upgradeBytes([]byte(tc.in)); err == nil {
			if _, err := LoadCorpus(bytes.NewReader(seg)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s, converted: got %v, want ErrBadSnapshot", tc.name, err)
			}
		}
	}
	// A graph that does not contain the snapshot's nodes is rejected.
	small := randomGraph(2, 1, 919)
	snap := "# ned corpus v1 backend=vp k=2 directed=0 nodes=1\n7 2 0\n"
	if _, err := loadUpgraded([]byte(snap), WithGraph(small)); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("snapshot node beyond graph: got %v, want ErrNodeOutOfRange", err)
	}
	// A directed snapshot restored onto an undirected graph would make
	// later Inserts extract inconsistent signatures: rejected up front.
	dsnap := "# ned corpus v1 backend=vp k=2 directed=1 nodes=1\n0 2 0 0,0\n"
	if _, err := loadUpgraded([]byte(dsnap), WithGraph(small)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("directed snapshot on undirected graph: got %v, want ErrBadSnapshot", err)
	}
}

// sameItemColumns requires two items to carry the same trees (parent
// vectors) and the same profile columns.
func sameItemColumns(t *testing.T, label string, got, want ned.Item) {
	t.Helper()
	if got.Node != want.Node || got.K != want.K {
		t.Fatalf("%s: item (%d, k=%d), want (%d, k=%d)", label, got.Node, got.K, want.Node, want.K)
	}
	trees := [][2]*tree.Tree{{got.Out, want.Out}, {got.In, want.In}}
	profiles := [][2]*tree.Profile{{got.OutP, want.OutP}, {got.InP, want.InP}}
	for i, tr := range trees {
		if (tr[0] == nil) != (tr[1] == nil) {
			t.Fatalf("%s: node %d: tree %d present on one side only", label, want.Node, i)
		}
		if tr[0] == nil {
			continue
		}
		if !slices.Equal(tr[0].ParentVector(), tr[1].ParentVector()) {
			t.Fatalf("%s: node %d: parents %v, want %v", label, want.Node, tr[0].ParentVector(), tr[1].ParentVector())
		}
		g, w := profiles[i][0], profiles[i][1]
		for _, col := range [][2][]int32{
			{g.Levels, w.Levels}, {g.Labels, w.Labels}, {g.Perm, w.Perm},
			{g.Kids, w.Kids}, {g.KidOff, w.KidOff}, {g.Degs, w.Degs},
		} {
			if !slices.Equal(col[0], col[1]) {
				t.Fatalf("%s: node %d: profile column %v, want %v", label, want.Node, col[0], col[1])
			}
		}
		if g.LeafLabel != w.LeafLabel || g.Canon != w.Canon || g.Size != w.Size {
			t.Fatalf("%s: node %d: leaf/canon/size %d/%d/%d, want %d/%d/%d", label, want.Node,
				g.LeafLabel, g.Canon, g.Size, w.LeafLabel, w.Canon, w.Size)
		}
	}
}

// sameCorpusColumns requires two corpora to hold the same items with
// the same columns.
func sameCorpusColumns(t *testing.T, label string, got, want *Corpus) {
	t.Helper()
	g := slices.Collect(got.materializedView().ep.items())
	w := slices.Collect(want.materializedView().ep.items())
	if len(g) != len(w) {
		t.Fatalf("%s: %d items, want %d", label, len(g), len(w))
	}
	for i := range w {
		sameItemColumns(t, label, g[i], w[i])
	}
}

// TestSnapshotRoundTripsColumns: what a segment stores is each tree's
// labels above its deepest level, and what a load derives from them is
// the corpus that was written — parents and every profile column — for
// a converted text snapshot holding a tree in level order but not BFS
// order (which the segment stores with its parent vector), and for a
// directed corpus through a checkpoint and OpenDurable.
func TestSnapshotRoundTripsColumns(t *testing.T) {
	// Node 0's tree hangs node 3 under node 2 and node 4 under node 1.
	const text = "# ned corpus v1 backend=pruned k=2 directed=0 nodes=3\n" +
		"0 2 0,0,2,1\n" +
		"1 2 0,0,1,1,2\n" +
		"2 2 0,1,1\n"
	src, err := loadUpgraded([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCorpusColumns(t, "text snapshot with a non-BFS tree", loaded, src)
	if got := slices.Collect(loaded.materializedView().ep.items())[0].Out.ParentVector(); !slices.Equal(got, []int32{-1, 0, 0, 2, 1}) {
		t.Fatalf("non-BFS tree reloaded as %v", got)
	}
	var oracle corpusOracle
	for it := range src.materializedView().ep.items() {
		oracle = append(oracle, Signature{Node: it.Node, K: it.K, Tree: it.Out})
	}
	assertMatchesOracle(t, "text snapshot with a non-BFS tree", loaded, oracle, randomGraph(20, 40, 980), 2, 3, 981)

	g := randomDirectedGraph(80, 170, 982)
	c, err := NewCorpus(g, 3, WithDirected())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(4, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurable()
	sameCorpusColumns(t, "directed checkpoint", re, c)
}
