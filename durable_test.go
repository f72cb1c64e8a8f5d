package ned

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ned/internal/segment"
)

// queryFingerprint runs a deterministic query battery and renders the
// results as a string, so two corpora can be compared for node-identical
// answers.
func queryFingerprint(t *testing.T, c *Corpus, gQuery *Graph, k int) string {
	t.Helper()
	ctx := context.Background()
	var sb strings.Builder
	for q := 0; q < 6; q++ {
		sig := NewSignature(gQuery, NodeID(q*7%gQuery.NumNodes()), k)
		res, err := c.KNNSignature(ctx, sig, 5)
		if err != nil {
			t.Fatalf("KNNSignature: %v", err)
		}
		fmt.Fprintln(&sb, res)
		rng, err := c.Range(ctx, sig, 3)
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		fmt.Fprintln(&sb, rng)
	}
	return sb.String()
}

// oracleFingerprint is queryFingerprint answered by the oracle: what
// every corpus over the oracle's candidates must render.
func oracleFingerprint(o corpusOracle, gQuery *Graph, k int) string {
	var sb strings.Builder
	for q := 0; q < 6; q++ {
		sig := NewSignature(gQuery, NodeID(q*7%gQuery.NumNodes()), k)
		fmt.Fprintln(&sb, o.knn(sig, 5))
		fmt.Fprintln(&sb, o.within(sig, 3))
	}
	return sb.String()
}

// nodeFingerprint renders KNN answers for a fixed set of indexed
// nodes — the query form that works for directed and undirected
// corpora alike.
func nodeFingerprint(t *testing.T, c *Corpus, nodes []NodeID) string {
	t.Helper()
	ctx := context.Background()
	var sb strings.Builder
	for _, v := range nodes {
		res, err := c.KNN(ctx, v, 5)
		if err != nil {
			t.Fatalf("KNN(%d): %v", v, err)
		}
		fmt.Fprintln(&sb, res)
	}
	return sb.String()
}

// randomDirectedGraph builds a seeded directed graph.
func randomDirectedGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewGraphBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// nodeOracleFingerprint is nodeFingerprint answered exhaustively over
// every node of g: by the low-level directed NED, or by the oracle.
func nodeOracleFingerprint(g *Graph, nodes []NodeID, k int, directed bool) string {
	var sb strings.Builder
	if directed {
		for _, v := range nodes {
			fmt.Fprintln(&sb, directedRanking(g, v, k)[:5])
		}
		return sb.String()
	}
	o := oracleOver(g, k, allNodes(g))
	for _, v := range nodes {
		fmt.Fprintln(&sb, o.knn(NewSignature(g, v, k), 5))
	}
	return sb.String()
}

// Snapshot → LoadCorpus must reproduce a corpus that answers as
// the exhaustive scan does, for both directednesses, without
// recompiling profiles (the dictionary arrives with the segment).
func TestSnapshotSegmentRoundTrip(t *testing.T) {
	queryNodes := []NodeID{0, 7, 13, 21, 40, 66}
	for _, directed := range []bool{false, true} {
		var g *Graph
		opts := []CorpusOption{}
		if directed {
			g = randomDirectedGraph(80, 170, 300)
			opts = append(opts, WithDirected())
		} else {
			g = randomGraph(80, 170, 300)
		}
		c, err := NewCorpus(g, 2, opts...)
		if err != nil {
			t.Fatalf("NewCorpus: %v", err)
		}
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		c2, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadCorpus(segment): %v", err)
		}
		want := nodeOracleFingerprint(g, queryNodes, 2, directed)
		if got := nodeFingerprint(t, c2, queryNodes); got != want {
			t.Fatalf("directed=%v: segment round-trip diverges from the exhaustive scan:\n got %s\nwant %s",
				directed, got, want)
		}
		// The dictionary traveled with the segment: same shape count,
		// and the loaded profiles resolve against it.
		if c2.dict.Len() != c.dict.Len() {
			t.Fatalf("dictionary did not travel: %d shapes, want %d", c2.dict.Len(), c.dict.Len())
		}
		// The embedded graph re-enables mutation without WithGraph.
		if err := c2.Insert(0); err != nil {
			t.Fatalf("Insert on segment-loaded corpus: %v", err)
		}
	}
}

// A segment load must honor the same option overlay as text imports.
func TestSegmentLoadOptions(t *testing.T) {
	g := randomGraph(60, 130, 310)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCorpus(bytes.NewReader(buf.Bytes()), WithShards(3), WithWorkers(2), WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.Shards != 1 || s.Workers != 2 {
		t.Fatalf("options not applied: %d shards (WithShards is ignored), %d workers", s.Shards, s.Workers)
	}
	if _, err := LoadCorpus(bytes.NewReader(buf.Bytes()), WithBackend(Backend(99))); !errors.Is(err, ErrBadBackend) {
		t.Errorf("WithBackend(99) at load: got %v, want ErrBadBackend", err)
	}
	gQuery := randomGraph(40, 80, 311)
	if got, want := queryFingerprint(t, c2, gQuery, 2), oracleFingerprint(oracleOver(g, 2, allNodes(g)), gQuery, 2); got != want {
		t.Fatalf("segment load with options diverges from the exhaustive scan")
	}
}

// LoadCorpus sniffs the leading bytes: the written format loads, a text
// manifest is a legacy format, and loads once converted.
func TestLoadCorpusSniffsFormat(t *testing.T) {
	g := rebalancedGraph() // the graph the checked-in v3 manifest was taken from
	text, err := os.ReadFile("testdata/corpus_v3_rebalanced.nedcorpus")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCorpus(g, rebalancedK)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := c.Snapshot(&bin); err != nil {
		t.Fatal(err)
	}
	if !segment.IsSegment(bin.Bytes()) || segment.IsSegment(text) {
		t.Fatal("format sniffing misclassifies snapshots")
	}
	gQuery := randomGraph(30, 60, 321)
	want := oracleFingerprint(oracleOver(g, rebalancedK, allNodes(g)), gQuery, rebalancedK)
	if _, err := LoadCorpus(bytes.NewReader(text)); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("LoadCorpus(text): got %v, want ErrLegacyFormat", err)
	}
	converted, err := upgradeBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"text": converted, "binary": bin.Bytes()} {
		c2, err := LoadCorpus(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("LoadCorpus(%s): %v", name, err)
		}
		if got := queryFingerprint(t, c2, gQuery, rebalancedK); got != want {
			t.Fatalf("%s load diverges from the exhaustive scan", name)
		}
	}
}

// A corrupt segment must refuse to load — any byte flip, any truncation.
// (Exhaustive per-byte coverage lives in internal/segment; this locks
// the ErrBadSnapshot wrapping at the corpus API.)
func TestLoadCorpusSegmentCorruption(t *testing.T) {
	g := randomGraph(30, 60, 330)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, cut := range []int{len(blob) / 3, len(blob) - 1} {
		if _, err := LoadCorpus(bytes.NewReader(blob[:cut])); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("truncated segment: err = %v, want ErrBadSnapshot", err)
		}
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)/2] ^= 0x10
	if _, err := LoadCorpus(bytes.NewReader(mut)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt segment: err = %v, want ErrBadSnapshot", err)
	}
}

// mutate runs a deterministic mutation burst and returns the live set.
func mutateBurst(t *testing.T, c *Corpus, g *Graph) map[NodeID]bool {
	t.Helper()
	live := map[NodeID]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		live[NodeID(v)] = true
	}
	for i := 0; i < 20; i++ {
		rm := NodeID((i * 7) % g.NumNodes())
		if err := c.Remove(rm); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		delete(live, rm)
		if i%3 == 0 {
			add := NodeID((i * 5) % g.NumNodes())
			if err := c.Insert(add); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			live[add] = true
		}
	}
	return live
}

// checkEquivalent asserts every query path of c answers exactly as the
// exhaustive scan over live does.
func checkEquivalent(t *testing.T, c *Corpus, g *Graph, live map[NodeID]bool, k int) {
	t.Helper()
	assertMatchesOracle(t, "recovered", c, oracleOver(g, k, sortedNodes(live)), randomGraph(40, 80, 999), k, 6, 997)
	if n := c.Stats().Nodes; n != len(live) {
		t.Fatalf("recovered corpus has %d nodes, want %d", n, len(live))
	}
}

func TestDurableRecoverySurvivesReopen(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNone} {
		dir := t.TempDir()
		g := randomGraph(80, 170, 400)
		c, err := NewCorpus(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MakeDurable(dir, policy); err != nil {
			t.Fatal(err)
		}
		live := mutateBurst(t, c, g)
		if err := c.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		c2, err := OpenDurable(dir, policy)
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		checkEquivalent(t, c2, g, live, 2)
		// The recovered corpus keeps logging: mutate, reopen again.
		if err := c2.Remove(NodeID(50)); err != nil {
			t.Fatal(err)
		}
		delete(live, 50)
		if err := c2.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		c3, err := OpenDurable(dir, policy)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, c3, g, live, 2)
		c3.CloseDurable()
	}
}

// Recovery without a clean close: the WAL was fsynced per commit, the
// process just vanished (no CloseDurable). Same-process stand-in for a
// crash; the SIGKILL test below does it for real.
func TestDurableRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(80, 170, 410)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)
	// No close: open the directory as recovery would.
	c2, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	checkEquivalent(t, c2, g, live, 2)
	c2.CloseDurable()
}

func TestCheckpointTruncatesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(80, 170, 420)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)
	recs, _, durable := c.DurableStats()
	if !durable || recs == 0 {
		t.Fatalf("DurableStats = %d records, durable=%v", recs, durable)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if recs, _, _ := c.DurableStats(); recs != 0 {
		t.Fatalf("active log has %d records after checkpoint, want 0", recs)
	}
	// Generation 0 is superseded and gone; generation 1 is live.
	if _, err := os.Stat(segment.CheckpointPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("superseded checkpoint survived")
	}
	if _, err := os.Stat(segment.WALPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatal("superseded wal survived")
	}
	// Mutations after the checkpoint land in the new generation.
	if err := c.Remove(NodeID(33)); err != nil {
		t.Fatal(err)
	}
	delete(live, 33)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	checkEquivalent(t, c2, g, live, 2)
	c2.CloseDurable()
}

// A checkpoint streams its segment to disk and verifies it through a
// fixed buffer, so writing one allocates a small fraction of the
// segment's size rather than a second in-memory copy of every item.
func TestCheckpointAllocatesLessThanSegment(t *testing.T) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1, Seed: 42})
	c, err := NewCorpus(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	defer c.CloseDurable()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(segment.CheckpointPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(fi.Size()) / 4; alloc >= limit {
		t.Fatalf("Checkpoint allocated %d B for a %d B segment (limit %d B)", alloc, fi.Size(), limit)
	}
	t.Logf("Checkpoint allocated %d B for a %d B segment", alloc, fi.Size())
}

// A checkpoint splits the corpus's one node-ascending item list into
// min(GOMAXPROCS, 16) item tables, so a restart decodes them in
// parallel; the split is layout only, and the reopened corpus answers
// exactly as the one that wrote it.
func TestCheckpointSplitsItemTables(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const k = 2
	g := randomGraph(80, 170, 440)
	gQuery := randomGraph(40, 80, 441)
	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segment.CheckpointPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	meta, items, _, _, _, err := segment.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := min(runtime.GOMAXPROCS(0), 16); meta.Shards != want || len(items) != len(live) {
		t.Fatalf("checkpoint holds %d items in %d tables, want %d in %d", len(items), meta.Shards, len(live), want)
	}
	want := queryFingerprint(t, c, gQuery, k)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurable()
	checkEquivalent(t, re, g, live, k)
	if got := queryFingerprint(t, re, gQuery, k); got != want {
		t.Fatalf("reopened corpus answers differently:\n got %s\nwant %s", got, want)
	}
}

// A rotation whose checkpoint never materialized (the crash window
// between rotate and segment write) leaves two log generations behind
// the last checkpoint; recovery must replay both, in order.
func TestRecoveryReplaysMultipleLogGenerations(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(80, 170, 430)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)
	// Cut the log exactly as Checkpoint would, then "crash" before the
	// segment write: generation 1 is active, checkpoint 1 never exists.
	c.durMu.Lock()
	w := c.wal.Load()
	if err := w.Rotate(segment.WALPath(dir, 1), nil); err != nil {
		t.Fatal(err)
	}
	c.walSeq = 1
	c.durMu.Unlock()
	if err := c.Remove(NodeID(61)); err != nil {
		t.Fatal(err)
	}
	delete(live, 61)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatalf("OpenDurable across two log generations: %v", err)
	}
	checkEquivalent(t, c2, g, live, 2)
	c2.CloseDurable()
}

// A torn tail on the active log — the residue of dying mid-append — is
// dropped; everything committed before it survives.
func TestRecoveryDropsTornWALTail(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(80, 170, 440)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	live := mutateBurst(t, c, g)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	walPath := segment.WALPath(dir, 0)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c2, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable over torn tail: %v", err)
	}
	checkEquivalent(t, c2, g, live, 2)
	// The reopened log was truncated and keeps appending cleanly.
	if err := c2.Remove(NodeID(10)); err != nil {
		t.Fatal(err)
	}
	delete(live, 10)
	c2.CloseDurable()
	c3, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, c3, g, live, 2)
	c3.CloseDurable()
}

// Corruption strictly inside the log fails recovery loudly.
func TestRecoveryRefusesMidWALCorruption(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(80, 170, 450)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	mutateBurst(t, c, g)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	walPath := segment.WALPath(dir, 0)
	blob, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[10] ^= 0x40 // inside the first frame's payload, frames follow
	if err := os.WriteFile(walPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, FsyncNone); err == nil {
		t.Fatal("OpenDurable accepted a log corrupted mid-file")
	}
}

// editedGraph returns a version of g with n nodes: g's edges among the
// surviving nodes, about one in eight of them removed, plus a few seeded
// edges g lacks; directedness is kept.
func editedGraph(g *Graph, n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewGraphBuilder(n, g.Directed())
	for _, e := range g.Edges() {
		if int(e.U) < n && int(e.V) < n && rng.Intn(8) != 0 {
			b.AddEdge(e.U, e.V)
		}
	}
	for added := 0; added < 8; {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v && (int(u) >= g.NumNodes() || int(v) >= g.NumNodes() || !g.HasEdge(u, v)) {
			b.AddEdge(u, v)
			added++
		}
	}
	return b.Build()
}

// freshState is corpusState of a corpus freshly built over live nodes of
// g — the state a recovered corpus must reproduce.
func freshState(t *testing.T, g *Graph, live map[NodeID]bool, k int, opts ...CorpusOption) string {
	t.Helper()
	c, err := NewCorpus(g, k, append(opts, WithNodes(sortedNodes(live)))...)
	if err != nil {
		t.Fatal(err)
	}
	return corpusState(c)
}

// checkpointFiles lists dir's checkpoint generations.
func checkpointFiles(t *testing.T, dir string) []int64 {
	t.Helper()
	ckpts, err := segment.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ckpts
}

// An UpdateGraph is one WAL record carrying its edge diff — no
// checkpoint — and recovery replays it: reopening without CloseDurable
// lands on the new graph, and an edit back to the old graph, with
// Inserts and Removes between the edits, replays in log order. Both
// directednesses.
func TestRecoveryReplaysGraphEdit(t *testing.T) {
	const k = 2
	for _, tc := range []struct {
		name string
		g1   *Graph
		opts []CorpusOption
	}{
		{"undirected", randomGraph(60, 130, 580), nil},
		{"directed", randomDirectedGraph(60, 150, 581), []CorpusOption{WithDirected()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g1 := tc.g1
			g2 := editedGraph(g1, 64, 582) // grows by four nodes
			live := map[NodeID]bool{}
			for v := 0; v < 50; v++ {
				live[NodeID(v)] = true
			}
			c, err := NewCorpus(g1, k, append(tc.opts, WithNodes(sortedNodes(live)))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.MakeDurable(dir, FsyncAlways); err != nil {
				t.Fatal(err)
			}
			ckpts := checkpointFiles(t, dir)
			recs, _, _ := c.DurableStats()
			refreshed, err := c.UpdateGraph(g2)
			if err != nil {
				t.Fatalf("UpdateGraph: %v", err)
			}
			if refreshed == 0 {
				t.Fatal("the edit refreshes no signature; the test would not cover re-extraction")
			}
			if got, _, _ := c.DurableStats(); got != recs+1 {
				t.Fatalf("UpdateGraph appended %d WAL records, want 1", got-recs)
			}
			if got := checkpointFiles(t, dir); !slices.Equal(got, ckpts) {
				t.Fatalf("UpdateGraph wrote checkpoints: %v, before %v", got, ckpts)
			}

			// No close: the log alone carries the new graph.
			c2, err := OpenDurable(dir, FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := corpusState(c2), freshState(t, g2, live, k, tc.opts...); got != want {
				t.Fatalf("reopened after UpdateGraph off the new graph's state:\n got %s\nwant %s", got, want)
			}

			// Inserts (one of a node only g2 has) and a Remove between two
			// edits, then an edit back to g1 — which drops node 62 again —
			// and an Insert after it.
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c2.Insert(50, 51, 62))
			must(c2.Remove(3, 4))
			if _, err := c2.UpdateGraph(g1); err != nil {
				t.Fatal(err)
			}
			must(c2.Insert(52))
			for _, v := range []NodeID{50, 51, 52} {
				live[v] = true
			}
			delete(live, 3)
			delete(live, 4)
			want := freshState(t, g1, live, k, tc.opts...)
			if got := corpusState(c2); got != want {
				t.Fatalf("live corpus off its model state:\n got %s\nwant %s", got, want)
			}
			c3, err := OpenDurable(dir, FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			defer c3.CloseDurable()
			if got := corpusState(c3); got != want {
				t.Fatalf("recovered off the state after the edit back:\n got %s\nwant %s", got, want)
			}
			if tc.opts == nil {
				assertMatchesOracle(t, "recovered after edits", c3, oracleOver(g1, k, sortedNodes(live)), randomGraph(40, 80, 998), k, 6, 996)
			}
			assertV3Logs(t, dir)
		})
	}
}

// walFrameVersions lists the payload version of every frame of the log
// at path, in log order.
func walFrameVersions(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var versions []byte
	for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off:])) {
		versions = append(versions, raw[off+8])
	}
	return versions
}

// assertV3Logs requires every frame of every log in dir to be version 3,
// and returns how many there are.
func assertV3Logs(t *testing.T, dir string) int {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, path := range logs {
		for i, v := range walFrameVersions(t, path) {
			if v != 3 {
				t.Fatalf("%s: frame %d is version %d, want 3", filepath.Base(path), i, v)
			}
			frames++
		}
	}
	return frames
}

// Every frame the engine writes is version 3: a durable corpus that
// inserts, removes (nodes unsorted and repeated), moves its graph to a
// larger version and back, checkpoints and keeps mutating leaves
// version-3 frames only, in every log generation, and they replay to
// the state it published.
func TestDurableWritesOnlyV3Frames(t *testing.T) {
	const k = 2
	dir := t.TempDir()
	g1 := randomGraph(60, 130, 590)
	g2 := editedGraph(g1, 64, 591) // grows by four nodes
	live := map[NodeID]bool{}
	for v := 0; v < 50; v++ {
		live[NodeID(v)] = true
	}
	c, err := NewCorpus(g1, k, WithNodes(sortedNodes(live)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Insert(55, 50, 51))
	must(c.Remove(7, 3, 7))
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	must(c.Insert(62))
	if n := assertV3Logs(t, dir); n != 4 {
		t.Fatalf("%d frames before the checkpoint, want 4", n)
	}
	must(c.Checkpoint())
	if _, err := c.UpdateGraph(g1); err != nil { // drops node 62 again
		t.Fatal(err)
	}
	must(c.Remove(0))
	must(c.CloseDurable())
	if n := assertV3Logs(t, dir); n < 2 {
		t.Fatalf("%d frames after the checkpoint, want 2 at least", n)
	}
	for _, v := range []NodeID{50, 51, 55} {
		live[v] = true
	}
	for _, v := range []NodeID{0, 3, 7} {
		delete(live, v)
	}
	r, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseDurable()
	if got, want := corpusState(r), freshState(t, g1, live, k); got != want {
		t.Fatalf("recovered state differs from a fresh build:\n got %s\nwant %s", got, want)
	}
}

// Replay is idempotent: every record of a log with inserts, removes and
// graph edits applied twice in a row, and the whole log applied twice,
// converge to the state the log's corpus published.
func TestRecoveryRecordTwiceConverges(t *testing.T) {
	const k = 2
	dir := t.TempDir()
	g1 := randomGraph(60, 130, 590)
	c, err := NewCorpus(g1, k, WithNodes(nodeRange(0, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	g2 := editedGraph(g1, 56, 591) // shrinks by four nodes
	for _, step := range []func() error{
		func() error { return c.Insert(40, 41, 58) },
		func() error { return c.Remove(2, 41) },
		func() error { _, err := c.UpdateGraph(g2); return err },
		func() error { return c.Insert(45, 41) },
		func() error { _, err := c.UpdateGraph(g1); return err },
		func() error { return c.Remove(45) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	want := corpusState(c)
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := segment.ReplayWAL(segment.WALPath(dir, 0))
	if err != nil || len(recs) != 6 {
		t.Fatalf("log holds %d records (%v), want 6", len(recs), err)
	}
	for name, order := range map[string][]segment.Record{
		"each record twice": slices.Concat(recs[:1], recs[:1], recs[1:2], recs[1:2], recs[2:3], recs[2:3],
			recs[3:4], recs[3:4], recs[4:5], recs[4:5], recs[5:], recs[5:]),
		"the log twice": slices.Concat(recs, recs),
	} {
		r, err := loadCheckpoint(segment.CheckpointPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplay()
		for _, rec := range order {
			if err := r.applyRecovered(rec, rp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		r.finishReplay(rp)
		if got := corpusState(r); got != want {
			t.Fatalf("%s: replay diverged:\n got %s\nwant %s", name, got, want)
		}
	}
}

// A WithGraph passed to OpenDurable is attached after replay, never used
// for it: the items recovered are the ones recovery without the option
// yields. A graph that differs from the log's becomes the log's graph
// through a checkpoint, so a later Insert replays against it.
func TestRecoveryAttachesWithGraphAfterReplay(t *testing.T) {
	const k = 2
	src := t.TempDir()
	g1 := randomGraph(60, 130, 600)
	g2 := editedGraph(g1, 60, 601)
	other := editedGraph(g1, 60, 602)
	c, err := NewCorpus(g1, k, WithNodes(nodeRange(0, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(src, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(41, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	open := func(opts ...CorpusOption) (*Corpus, string) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(dir, FsyncNone, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r, dir
	}
	items := func(r *Corpus) string {
		var sb strings.Builder
		for it := range r.view.Load().items() {
			fmt.Fprintln(&sb, it.Node, it.Out.ParentVector())
		}
		return sb.String()
	}
	plain, _ := open()
	defer plain.CloseDurable()
	withOther, dir := open(WithGraph(other))
	if got, want := items(withOther), items(plain); got != want {
		t.Fatalf("WithGraph changed the replayed items:\n got %s\nwant %s", got, want)
	}
	if withOther.view.Load().g != other {
		t.Fatal("the WithGraph graph is not attached")
	}
	if len(checkpointFiles(t, dir)) != 1 || checkpointFiles(t, dir)[0] == 0 {
		t.Fatalf("attaching a graph that differs from the log's left checkpoints %v", checkpointFiles(t, dir))
	}
	if err := withOther.Insert(43); err != nil {
		t.Fatal(err)
	}
	if err := withOther.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseDurable()
	if got := fmt.Sprint(again.view.Load().g.Edges()); got != fmt.Sprint(other.Edges()) {
		t.Fatal("reopened off the attached graph")
	}
	it, ok := again.view.Load().scan.Item(43)
	if want := NewSignature(other, 43, k).Tree.ParentVector(); !ok || fmt.Sprint(it.Out.ParentVector()) != fmt.Sprint(want) {
		t.Fatal("an Insert after the attach did not replay against the attached graph")
	}
}

func TestDurableAPIErrors(t *testing.T) {
	g := randomGraph(20, 40, 460)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on plain corpus: %v, want ErrNotDurable", err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatalf("CloseDurable on plain corpus: %v, want nil", err)
	}
	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(t.TempDir(), FsyncNone); err == nil {
		t.Fatal("second MakeDurable accepted")
	}
	c2, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.MakeDurable(dir, FsyncNone); err == nil {
		t.Fatal("MakeDurable over existing durable state accepted")
	}
	c.CloseDurable()
	if _, err := OpenDurable(t.TempDir(), FsyncNone); err == nil {
		t.Fatal("OpenDurable on empty directory accepted")
	}
	if !HasDurableState(dir) || HasDurableState(t.TempDir()) {
		t.Fatal("HasDurableState misreports")
	}
}

// The acceptance crash test: a real subprocess is SIGKILLed mid-way
// through a mutation burst under FsyncAlways; recovery must come back
// at or past the last acknowledged mutation, with a live set that is
// an exact prefix of the burst, answering node-identically to a corpus
// that never crashed.
func TestDurableKillMidMutationBurst(t *testing.T) {
	if os.Getenv("NED_DURABLE_KILL_DIR") != "" {
		t.Skip("helper-only environment")
	}
	const n, k = 300, 2
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableKillHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "NED_DURABLE_KILL_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lastAcked := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "STEP "); ok {
			step, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				t.Fatalf("helper spoke gibberish: %q", line)
			}
			lastAcked = step
			if step >= 40 {
				// Mid-burst: the helper is between commits right now.
				cmd.Process.Kill()
				break
			}
		}
	}
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "STEP "); ok {
			if step, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
				lastAcked = step // acknowledged before the kill landed
			}
		}
	}
	cmd.Wait() // exit status is the kill; the directory is the evidence
	if lastAcked < 40 {
		t.Fatalf("helper died after only %d acknowledged steps", lastAcked)
	}

	c, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable after SIGKILL: %v", err)
	}
	defer c.CloseDurable()
	g := randomGraph(n, 2*n, 470) // must match the helper's graph
	// The helper removes node i at step i, so the live set uniquely
	// identifies the committed prefix: exactly {M..n-1} for some M.
	liveSet := liveItems(c)
	m := n - len(liveSet)
	if m <= lastAcked {
		t.Fatalf("recovered only %d committed steps, helper acknowledged %d", m, lastAcked+1)
	}
	for v := 0; v < n; v++ {
		if got, want := liveSet[NodeID(v)], v >= m; (got.Out != nil) != want {
			t.Fatalf("live set is not a burst prefix: node %d present=%v with %d removed", v, !want, m)
		}
	}
	live := map[NodeID]bool{}
	for v := m; v < n; v++ {
		live[NodeID(v)] = true
	}
	checkEquivalent(t, c, g, live, k)
}

// TestDurableKillHelper is the subprocess half of the kill test: it
// builds the corpus, attaches durability with FsyncAlways, then removes
// node i at step i, acknowledging each commit on stdout — until its
// parent kills it.
func TestDurableKillHelper(t *testing.T) {
	dir := os.Getenv("NED_DURABLE_KILL_DIR")
	if dir == "" {
		t.Skip("not in helper mode")
	}
	const n, k = 300, 2
	g := randomGraph(n, 2*n, 470)
	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Remove(NodeID(i)); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("STEP %d\n", i)
	}
}

// TestRecoveredRowsAreTheCheckpointBytes: a checkpoint's item tables hold
// each row's stored bytes as the arena holds them, and OpenDurable copies
// them back unchanged — node by node, the recovered arena's stored row
// equals the built one byte for byte, and both equal the bytes of the
// item table on disk.
func TestRecoveredRowsAreTheCheckpointBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		opts []CorpusOption
	}{
		{"PGP", MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.5, Seed: 42}), nil},
		{"directed", randomDirectedGraph(120, 300, 991), []CorpusOption{WithDirected()}},
	} {
		c, err := NewCorpus(tc.g, 3, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		built := storedRows(c)
		dir := t.TempDir()
		if err := c.MakeDurable(dir, FsyncNone); err != nil {
			t.Fatal(err)
		}
		if err := c.CloseDurable(); err != nil {
			t.Fatal(err)
		}
		_, path, _, err := segment.LatestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		disk := checkpointRows(t, path)
		re, err := OpenDurable(dir, FsyncNone)
		if err != nil {
			t.Fatal(err)
		}
		recovered := storedRows(re)
		re.CloseDurable()
		if len(built) != tc.g.NumNodes() || len(recovered) != len(built) || len(disk) != len(built) {
			t.Fatalf("%s: %d rows built, %d recovered, %d on disk, want %d", tc.name, len(built), len(recovered), len(disk), tc.g.NumNodes())
		}
		for v, want := range built {
			if got := recovered[v]; !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
				t.Fatalf("%s: node %d recovered as %v / %v, built %v / %v", tc.name, v, got[0], got[1], want[0], want[1])
			}
			if got := disk[v]; !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
				t.Fatalf("%s: node %d stored as %v / %v on disk, built %v / %v", tc.name, v, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// storedRows maps each node of c's scan to its stored rows (out, in),
// views of the arena.
func storedRows(c *Corpus) map[NodeID][2][]byte {
	rows := map[NodeID][2][]byte{}
	for r := range c.view.Load().scan.Rows() {
		rows[r.Node] = [2][]byte{r.Out, r.In}
	}
	return rows
}

// checkpointRows maps each node of a checkpoint's item tables to the
// bytes of its rows (out, in). Every tree of an extracted corpus is in
// BFS order, so a row is its header's uvarint and that many labels.
func checkpointRows(t *testing.T, path string) map[NodeID][2][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw[len(segment.Magic):])
	_, payload, err := segment.ReadSection(r)
	if err != nil {
		t.Fatal(err)
	}
	h, err := segment.DecodeHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	uv := func(p []byte, at int) (uint64, int) {
		x, n := binary.Uvarint(p[at:])
		if n <= 0 {
			t.Fatalf("%s: malformed uvarint at byte %d of an item table", path, at)
		}
		return x, at + n
	}
	rows := map[NodeID][2][]byte{}
	for {
		typ, p, err := segment.ReadSection(r)
		if err != nil {
			t.Fatal(err)
		}
		if typ == segment.SecEnd {
			return rows
		}
		if typ != segment.SecShard {
			continue
		}
		count, at := uv(p, 0)
		node := int64(-1)
		for range count {
			var delta uint64
			delta, at = uv(p, at)
			node += int64(delta)
			var sides [2][]byte
			for side := range 1 + boolInt(h.Directed) {
				start := at
				var m uint64
				if m, at = uv(p, at); m&(1<<31) != 0 {
					t.Fatalf("%s: node %d stores a parent vector", path, node)
				}
				for range m {
					_, at = uv(p, at)
				}
				sides[side] = p[start:at]
			}
			rows[NodeID(node)] = sides
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
