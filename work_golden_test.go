package ned

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.golden")

// workGoldenPath holds the counts TestWorkGolden pins.
var workGoldenPath = filepath.Join("testdata", "work.golden")

// workLog is the text TestWorkGolden compares: one "script key value"
// line per count, in the order the scripts ran.
type workLog struct{ sb strings.Builder }

func (w *workLog) add(script, key string, v any) { fmt.Fprintf(&w.sb, "%s %s %v\n", script, key, v) }

// answerHash folds every (node, distance) of a run of answers into one
// FNV-1a hash.
type answerHash struct{ h uint64 }

func newAnswerHash() *answerHash { return &answerHash{h: fnv.New64a().Sum64()} }

func (a *answerHash) add(ns []Neighbor) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|", a.h)
	for _, n := range ns {
		fmt.Fprintf(h, "%d:%d,", n.Node, n.Dist)
	}
	a.h = h.Sum64()
}

// addStats records the work counters a script's queries did: Stats
// since the last ResetStats.
func (w *workLog) addStats(script string, s CorpusStats) {
	w.add(script, "queries", s.Queries)
	w.add(script, "ted_calls", s.DistanceCalls)
	w.add(script, "early_exits", s.EarlyExits)
	w.add(script, "rows_bound", s.RowsBound)
	w.add(script, "size_prunes", s.SizePrunes)
	w.add(script, "padding_prunes", s.PaddingPrunes)
	w.add(script, "tier2_prunes", s.LabelPrunes)
	w.add(script, "hungarian_cells", s.HungarianCells)
	w.add(script, "verify_levels", s.VerifyLevels)
}

// workQueries runs a mix against c: KNN (l = 5) of every signature in
// sigs, of every node in nodes, and Range (r = 2) of the first tenth of
// nodes, and records the answers' hash and the queries' work.
func workQueries(t *testing.T, w *workLog, script string, c *Corpus, sigs []Signature, nodes []NodeID) {
	t.Helper()
	ctx := context.Background()
	c.ResetStats()
	h := newAnswerHash()
	for _, s := range sigs {
		ns, err := c.KNNSignature(ctx, s, interGraphL)
		if err != nil {
			t.Fatal(err)
		}
		h.add(ns)
	}
	for _, v := range nodes {
		ns, err := c.KNN(ctx, v, interGraphL)
		if err != nil {
			t.Fatal(err)
		}
		h.add(ns)
	}
	for _, v := range nodes[:len(nodes)/10] {
		sig, err := c.Signature(v)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := c.Range(ctx, sig, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.add(ns)
	}
	w.add(script, "answers", fmt.Sprintf("%016x", h.h))
	w.addStats(script, c.Stats())
}

// sigNodes is the nodes of sigs.
func sigNodes(sigs []Signature) []NodeID {
	out := make([]NodeID, len(sigs))
	for i, s := range sigs {
		out[i] = s.Node
	}
	return out
}

// TestWorkGolden pins the work the engine does, which at one worker is
// deterministic, against testdata/work.golden: a hash of every answer,
// TED* calls, rows bound and the prunes of each tier per query mix, the
// bytes each write copies (the first write after the build and after a
// reopen included), the WAL bytes each mutation logs and the checkpoint
// bytes per node. Any rise or fall fails; -update rewrites the file,
// whose diff a change states.
func TestWorkGolden(t *testing.T) {
	var w workLog

	// The serve-read mix over PGP x1, and corpus nodes drawn the same way.
	g, sigs := interGraphMixAt(1, 150)
	nodes := sigNodes(stratifiedSignatures(g, 150))
	c, err := NewCorpus(g, interGraphK, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	workQueries(t, &w, "pgp-x1", c, sigs, nodes)

	// GNU x1 at k = 3, a sparser, flatter graph.
	gnu := MustGenerateDataset(DatasetGNU, DatasetOptions{Scale: 1, Seed: 42})
	gc, err := NewCorpus(gnu, interGraphK, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	workQueries(t, &w, "gnu-x1", gc, nil, sigNodes(stratifiedSignatures(gnu, 100)))

	// Writes: Remove/Insert pairs, then two graph updates, each followed
	// by a pass of node queries.
	rng := rand.New(rand.NewSource(7))
	before := c.Stats().ShardCloneBytes[0]
	for i := range 40 {
		v := NodeID(rng.Intn(g.NumNodes()))
		if err := c.Remove(v); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := c.Insert(v); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			// The first write after the build, a Remove and an Insert of one
			// node: a built base has a load's room, so it copies its own rows.
			w.add("built", "first_write_clone_bytes", c.Stats().ShardCloneBytes[0]-before)
		}
	}
	w.add("writes", "clone_bytes_per_write", fmt.Sprintf("%.1f", float64(c.Stats().ShardCloneBytes[0]-before)/60))
	workQueries(t, &w, "writes-churn", c, nil, nodes[:50])
	for i, seed := range []int64{11, 12} {
		before := c.Stats().ShardCloneBytes[0]
		refreshed, err := c.UpdateGraph(AnonymizePerturb(g, 0.01, seed).Graph)
		if err != nil {
			t.Fatal(err)
		}
		w.add("writes", fmt.Sprintf("update%d_refreshed", i), refreshed)
		w.add("writes", fmt.Sprintf("update%d_clone_bytes", i), c.Stats().ShardCloneBytes[0]-before)
		workQueries(t, &w, fmt.Sprintf("writes-update%d", i), c, sigs[:50], nodes[:50])
	}

	// Durability: mutations through the log, one checkpoint, a reopen.
	dir := t.TempDir()
	dg := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.5, Seed: 42})
	d, err := NewCorpus(dg, interGraphK, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	muts := 0
	for i := range 20 {
		v := NodeID((i * 37) % dg.NumNodes())
		if err := d.Remove(v); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(v); err != nil {
			t.Fatal(err)
		}
		muts += 2
	}
	if _, err := d.UpdateGraph(AnonymizePerturb(dg, 0.01, 13).Graph); err != nil {
		t.Fatal(err)
	}
	muts++
	recs, walBytes, _ := d.DurableStats()
	w.add("durable", "wal_records", recs)
	w.add("durable", "wal_bytes_per_mutation", fmt.Sprintf("%.2f", float64(walBytes)/float64(muts)))
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A segment splits its items into min(GOMAXPROCS, 16) tables, so
	// the bytes are measured at a fixed table count.
	var snap bytes.Buffer
	procs := runtime.GOMAXPROCS(2)
	err = d.Snapshot(&snap)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		t.Fatal(err)
	}
	w.add("durable", "checkpoint_bytes_per_node", fmt.Sprintf("%.2f", float64(snap.Len())/float64(d.Stats().Nodes)))
	dnodes := sigNodes(stratifiedSignatures(dg, 60))
	workQueries(t, &w, "durable-before", d, nil, dnodes)
	if err := d.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(dir, FsyncNone, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.CloseDurable()
	workQueries(t, &w, "durable-reopened", r, nil, dnodes)
	// The first write after the reopen, a Remove and an Insert of one
	// node: a loaded corpus's arenas have room, so it copies its own rows.
	before = r.Stats().ShardCloneBytes[0]
	if err := r.Remove(dnodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(dnodes[0]); err != nil {
		t.Fatal(err)
	}
	w.add("durable-reopened", "first_write_clone_bytes", r.Stats().ShardCloneBytes[0]-before)

	got := w.sb.String()
	if *updateWork {
		if err := os.WriteFile(workGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		var diff strings.Builder
		for i := range max(len(gl), len(wl)) {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				fmt.Fprintf(&diff, "  got  %q\n  want %q\n", a, b)
			}
		}
		t.Fatalf("the engine's work moved from %s:\n%s", workGoldenPath, diff.String())
	}
}
