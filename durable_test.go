package ned

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
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
	if s := c2.Stats(); s.Shards != 3 || s.Workers != 2 {
		t.Fatalf("options ignored: %d shards, %d workers", s.Shards, s.Workers)
	}
	if _, err := LoadCorpus(bytes.NewReader(buf.Bytes()), WithBackend(Backend(99))); !errors.Is(err, ErrBadBackend) {
		t.Errorf("WithBackend(99) at load: got %v, want ErrBadBackend", err)
	}
	gQuery := randomGraph(40, 80, 311)
	if got, want := queryFingerprint(t, c2, gQuery, 2), oracleFingerprint(oracleOver(g, 2, allNodes(g)), gQuery, 2); got != want {
		t.Fatalf("re-sharded segment load diverges from the exhaustive scan")
	}
}

// The written format and the imported text formats load through the one
// LoadCorpus entry point, sniffed by leading bytes.
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
	for name, blob := range map[string][]byte{"text": text, "binary": bin.Bytes()} {
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
// segment's size rather than a second in-memory copy of every shard.
func TestCheckpointAllocatesLessThanSegment(t *testing.T) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1, Seed: 42})
	c, err := NewCorpus(g, 3, WithShards(2))
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

func TestUpdateGraphCheckpointsNewGraph(t *testing.T) {
	dir := t.TempDir()
	g1, g2 := testGraphPair(t)
	c, err := NewCorpus(g1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatalf("UpdateGraph: %v", err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.CloseDurable()
	// The recovered corpus runs on the updated graph: same edge set.
	rg := c2.view.Load().g
	if rg == nil || fmt.Sprint(rg.Edges()) != fmt.Sprint(g2.Edges()) {
		t.Fatal("recovered corpus did not keep the updated graph")
	}
	live := map[NodeID]bool{}
	for v := range liveItems(c2) {
		live[v] = true
	}
	assertMatchesOracle(t, "recovered post-update", c2, oracleOver(g2, 2, sortedNodes(live)), randomGraph(40, 80, 998), 2, 6, 996)
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
