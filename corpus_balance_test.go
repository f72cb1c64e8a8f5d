package ned

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file is the adaptive-sharding equivalence suite: whatever the
// rebalancer does to the placement table — split a hot shard, fold
// quiet ones, any interleaving with churn — answers must stay
// node-identical to the exhaustive scan over the live nodes, and the
// placement must survive every persistence path (text snapshot, binary
// segment, durable checkpoint). The race variant is the CI -race
// target for rebalance-under-churn.

// hotNodes returns nodes that hash-place into shard slot 0 of a
// base-shard layout — churning exactly these makes slot 0 the hot
// shard by construction.
func hotNodes(g *Graph, base, want int) []NodeID {
	out := make([]NodeID, 0, want)
	for v := 0; v < g.NumNodes() && len(out) < want; v++ {
		if HashShard(NodeID(v), base) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// churnHot drives rounds of Remove+Insert over the hot set, restoring
// membership each round so only contention counters change.
func churnHot(t *testing.T, c *Corpus, hot []NodeID, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		if err := c.Remove(hot...); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if err := c.Insert(hot...); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

// aggressivePolicy makes a single churned shard split on the first
// tick: tiny size floor, one mutation suffices, 10% of the tick score
// counts as hot.
func aggressivePolicy() RebalancePolicy {
	return RebalancePolicy{MinShardNodes: 4, SplitMinMutations: 1, SplitFraction: 0.1}
}

// TestRebalanceSplitsHotShard: concentrated churn on one shard must
// make RebalanceTick split exactly that shard, record the moves in the
// placement table, and leave answers node-identical to the exhaustive
// scan. A quiet follow-up tick must then fold the two
// smallest shards back together, again without answer drift.
func TestRebalanceSplitsHotShard(t *testing.T) {
	g := randomGraph(400, 1200, 3)
	const k, base = 2, 4
	c, err := NewCorpus(g, k, WithShards(base))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	want := oracleFingerprint(oracleOver(g, k, allNodes(g)), g, k)
	if got := queryFingerprint(t, c, g, k); got != want {
		t.Fatalf("pre-rebalance answers already diverge:\n got %s\nwant %s", got, want)
	}

	hot := hotNodes(g, base, 32)
	churnHot(t, c, hot, 4)

	res := c.RebalanceTick(aggressivePolicy())
	if res.Split != 0 {
		t.Fatalf("tick split shard %d, want the churned shard 0 (result %+v)", res.Split, res)
	}
	if res.NewShard != base {
		t.Errorf("split filed moves under slot %d, want appended slot %d", res.NewShard, base)
	}
	if res.Moved == 0 {
		t.Error("split moved no nodes")
	}
	s := c.Stats()
	if s.ShardSplits != 1 || s.Rebalances != 1 {
		t.Errorf("stats after split: splits=%d rebalances=%d, want 1/1", s.ShardSplits, s.Rebalances)
	}
	if s.PlacementOverrides == 0 {
		t.Error("split recorded no placement overrides")
	}
	if s.PlacementBase != base {
		t.Errorf("placement base %d changed by split, want %d", s.PlacementBase, base)
	}
	if s.Shards != base+1 {
		t.Errorf("shard slots %d after split, want %d", s.Shards, base+1)
	}
	if got := queryFingerprint(t, c, g, k); got != want {
		t.Errorf("post-split answers diverge:\n got %s\nwant %s", got, want)
	}

	// Quiet tick with a huge merge ceiling: every shard is now below
	// MinShardNodes and untouched since the split, so the two smallest
	// fold together.
	res = c.RebalanceTick(RebalancePolicy{MinShardNodes: 500})
	if res.MergedSrc < 0 || res.MergedDst < 0 {
		t.Fatalf("quiet tick did not merge: %+v", res)
	}
	if res.Split != -1 {
		t.Errorf("quiet tick also split shard %d", res.Split)
	}
	s = c.Stats()
	if s.ShardMerges != 1 {
		t.Errorf("stats after merge: merges=%d, want 1", s.ShardMerges)
	}
	if got := queryFingerprint(t, c, g, k); got != want {
		t.Errorf("post-merge answers diverge:\n got %s\nwant %s", got, want)
	}
}

// TestRebalanceEquivalence interleaves churn and rebalance ticks and
// requires every query path to answer exactly as the exhaustive scan
// over the live nodes does after every round.
func TestRebalanceEquivalence(t *testing.T) {
	g := randomGraph(300, 900, 9)
	const k = 2
	c, err := NewCorpus(g, k, WithShards(4))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	c.Rebuild() // the rebalancer only ticks on a built corpus
	live := map[NodeID]bool{}
	for _, v := range allNodes(g) {
		live[v] = true
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		victims := make([]NodeID, 0, 16)
		for len(victims) < 16 {
			victims = append(victims, NodeID(rng.Intn(g.NumNodes())))
		}
		back := victims[:len(victims)/2]
		if err := c.Remove(victims...); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if err := c.Insert(back...); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		for _, v := range victims {
			delete(live, v)
		}
		for _, v := range back {
			live[v] = true
		}
		c.RebalanceTick(aggressivePolicy())
		assertMatchesOracle(t, fmt.Sprintf("round %d", round), c, oracleOver(g, k, sortedNodes(live)), g, k, 4, 90+int64(round))
	}
	if s := c.Stats(); s.Rebalances == 0 {
		t.Errorf("no tick changed the layout: %+v", s)
	}
}

// TestPlacementSnapshotRoundTrips: a rebalanced placement must survive
// the text snapshot (as a v3 manifest), the binary segment, and be
// deliberately dropped when WithShards overrides the recorded layout —
// all without answer drift. A never-rebalanced corpus must keep
// writing byte-stable v2 text snapshots.
func TestPlacementSnapshotRoundTrips(t *testing.T) {
	g := randomGraph(400, 1200, 5)
	const k, base = 2, 4
	c, err := NewCorpus(g, k, WithShards(base))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	want := oracleFingerprint(oracleOver(g, k, allNodes(g)), g, k)
	c.Rebuild()
	churnHot(t, c, hotNodes(g, base, 32), 4)
	if res := c.RebalanceTick(aggressivePolicy()); res.Split != 0 {
		t.Fatalf("setup split did not happen: %+v", res)
	}
	overrides := c.Stats().PlacementOverrides
	if overrides == 0 {
		t.Fatal("setup split recorded no placement overrides")
	}
	if got := queryFingerprint(t, c, g, k); got != want {
		t.Fatalf("post-split answers diverge:\n got %s\nwant %s", got, want)
	}

	var text bytes.Buffer
	if err := c.Snapshot(&text); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !strings.HasPrefix(text.String(), "# ned corpus v3 ") {
		t.Errorf("rebalanced snapshot header %q, want a v3 manifest", firstLine(text.String()))
	}

	c2, err := LoadCorpus(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("LoadCorpus(text): %v", err)
	}
	if got := c2.Stats().PlacementOverrides; got != overrides {
		t.Errorf("text round-trip placement overrides %d, want %d", got, overrides)
	}
	if got := queryFingerprint(t, c2, g, k); got != want {
		t.Errorf("text round-trip answers diverge:\n got %s\nwant %s", got, want)
	}

	// WithShards overrides the recorded layout: the placement no longer
	// describes the slot count and must be dropped, answers unchanged.
	c3, err := LoadCorpus(bytes.NewReader(text.Bytes()), WithShards(3))
	if err != nil {
		t.Fatalf("LoadCorpus(WithShards(3)): %v", err)
	}
	if got := c3.Stats().PlacementOverrides; got != 0 {
		t.Errorf("WithShards override kept %d placement overrides, want 0", got)
	}
	if got := queryFingerprint(t, c3, g, k); got != want {
		t.Errorf("WithShards override answers diverge:\n got %s\nwant %s", got, want)
	}

	var seg bytes.Buffer
	if err := c.SnapshotSegment(&seg); err != nil {
		t.Fatalf("SnapshotSegment: %v", err)
	}
	c4, err := LoadCorpus(bytes.NewReader(seg.Bytes()))
	if err != nil {
		t.Fatalf("LoadCorpus(segment): %v", err)
	}
	if got := c4.Stats().PlacementOverrides; got != overrides {
		t.Errorf("segment round-trip placement overrides %d, want %d", got, overrides)
	}
	if got := queryFingerprint(t, c4, g, k); got != want {
		t.Errorf("segment round-trip answers diverge:\n got %s\nwant %s", got, want)
	}

	// A corpus that never rebalanced keeps the placement trivial and
	// the text snapshot byte-stable at v2.
	plain, err := NewCorpus(g, k, WithShards(base))
	if err != nil {
		t.Fatalf("NewCorpus(plain): %v", err)
	}
	var v2 bytes.Buffer
	if err := plain.Snapshot(&v2); err != nil {
		t.Fatalf("Snapshot(plain): %v", err)
	}
	if !strings.HasPrefix(v2.String(), "# ned corpus v2 ") {
		t.Errorf("trivial-placement snapshot header %q, want v2", firstLine(v2.String()))
	}
}

// TestPlacementDurableRoundTrip: a rebalanced placement must land in
// the durable checkpoint and come back through OpenDurable with
// node-identical answers.
func TestPlacementDurableRoundTrip(t *testing.T) {
	g := randomGraph(400, 1200, 13)
	const k, base = 2, 4
	c, err := NewCorpus(g, k, WithShards(base))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	dir := t.TempDir()
	if err := c.MakeDurable(dir, FsyncAlways); err != nil {
		t.Fatalf("MakeDurable: %v", err)
	}
	want := oracleFingerprint(oracleOver(g, k, allNodes(g)), g, k)
	c.Rebuild()
	churnHot(t, c, hotNodes(g, base, 32), 4)
	if res := c.RebalanceTick(aggressivePolicy()); res.Split != 0 {
		t.Fatalf("setup split did not happen: %+v", res)
	}
	overrides := c.Stats().PlacementOverrides
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatalf("CloseDurable: %v", err)
	}

	c2, err := OpenDurable(dir, FsyncAlways)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer func() {
		if err := c2.CloseDurable(); err != nil {
			t.Errorf("CloseDurable(reopened): %v", err)
		}
	}()
	if got := c2.Stats().PlacementOverrides; got != overrides {
		t.Errorf("durable round-trip placement overrides %d, want %d", got, overrides)
	}
	if got := queryFingerprint(t, c2, g, k); got != want {
		t.Errorf("durable round-trip answers diverge:\n got %s\nwant %s", got, want)
	}
}

// TestRebalanceUnderChurnRace runs queries, mutations, synchronous
// ticks, and the background rebalancer all at once — the CI -race
// target — then requires the settled corpus to answer node-identically
// to the exhaustive scan over the same membership.
func TestRebalanceUnderChurnRace(t *testing.T) {
	g := randomGraph(200, 600, 17)
	const k = 2
	c, err := NewCorpus(g, k, WithShards(4))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	queryFingerprint(t, c, g, k) // materialize before the storm

	stop := c.StartRebalancer(RebalancePolicy{
		Interval: 2 * time.Millisecond, MinShardNodes: 4,
		SplitMinMutations: 1, SplitFraction: 0.1,
	})

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				sig := NewSignature(g, NodeID((i*13+seed*7)%g.NumNodes()), k)
				if _, err := c.KNNSignature(ctx, sig, 5); err != nil {
					t.Errorf("KNNSignature: %v", err)
					return
				}
				if _, err := c.Range(ctx, sig, 2); err != nil {
					t.Errorf("Range: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for r := 0; r < 40; r++ {
			batch := make([]NodeID, 0, 8)
			for len(batch) < 8 {
				batch = append(batch, NodeID(rng.Intn(g.NumNodes())))
			}
			if err := c.Remove(batch...); err != nil {
				t.Errorf("Remove: %v", err)
				return
			}
			if err := c.Insert(batch...); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			c.RebalanceTick(aggressivePolicy())
		}
	}()
	wg.Wait()
	stop()
	stop() // idempotent

	want := oracleFingerprint(oracleOver(g, k, allNodes(g)), g, k)
	if got := queryFingerprint(t, c, g, k); got != want {
		t.Errorf("settled answers diverge from the exhaustive scan:\n got %s\nwant %s", got, want)
	}
	if s := c.Stats(); s.Rebalances == 0 {
		t.Error("no rebalance ticks were recorded during the storm")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
